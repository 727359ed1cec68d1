#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

void print_line(const char* kind, const std::string& name, double value,
                const std::string& unit, std::size_t samples) {
  if (samples > 0) {
    std::printf("%-6s %-44s %.6g %s (n=%zu)\n", kind, name.c_str(), value,
                unit.c_str(), samples);
  } else {
    std::printf("%-6s %-44s %.6g %s\n", kind, name.c_str(), value, unit.c_str());
  }
}

}  // namespace

void Report::metric(const std::string& name, double value, const std::string& unit,
                    std::size_t samples) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not a finite number");
    value = 0.0;
  }
  for (MetricValue& m : metrics_) {
    if (m.name == name) {
      m = MetricValue{name, value, unit, samples};
      print_line("metric", name, value, unit, samples);
      return;
    }
  }
  metrics_.push_back(MetricValue{name, value, unit, samples});
  print_line("metric", name, value, unit, samples);
}

void Report::note(const std::string& name, double value, const std::string& unit,
                  std::size_t samples) const {
  print_line("note", name, value, unit, samples);
}

void Report::check(bool ok, const std::string& what, std::uint64_t operations) {
  attempted_ += operations;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 20) {
      failures_.push_back(what);
    }
  }
}

double Report::value(std::string_view name) const {
  for (const MetricValue& m : metrics_) {
    if (m.name == name) {
      return m.value;
    }
  }
  throw std::logic_error("metric not recorded: " + std::string(name));
}

bool Report::has(std::string_view name) const {
  for (const MetricValue& m : metrics_) {
    if (m.name == name) {
      return true;
    }
  }
  return false;
}

void Report::layer_shares(const Spans& spans, std::uint32_t root_index) {
  const auto layers = layer_self_times(spans);
  const auto wall = static_cast<double>(spans.at(root_index).duration());
  const std::string root_layer = spans[root_index].layer;
  double accounted = 0.0;
  double unaccounted = 0.0;
  for (const auto& [layer, self] : layers) {
    const double share = static_cast<double>(self) / wall;
    if (layer == root_layer) {
      unaccounted = share;
    } else {
      metric(layer + ".self_share", share, "ratio");
      accounted += share;
    }
  }
  metric("bench.unaccounted_share", unaccounted, "ratio");
  check(std::fabs(accounted + unaccounted - 1.0) < 1e-9,
        "layer self times do not add up to the traced wall time");
}

void Report::emit(const MetricName* names, std::size_t count, bool fill_zero) const {
  for (const std::string& f : failures_) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < count; ++i) {
    double value = 0.0;
    if (has(names[i].name)) {
      value = this->value(names[i].name);
      for (const MetricValue& m : metrics_) {
        if (m.name == names[i].name && m.unit != names[i].unit) {
          throw std::logic_error("metric " + m.name + " measured in " + m.unit +
                                 ", declared in " + names[i].unit);
        }
      }
    } else if (!fill_zero) {
      throw std::logic_error(std::string("end-to-end metric not measured: ") +
                             names[i].name);
    }
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    json += std::string(i == 0 ? "" : ", ") + "\"" + names[i].name +
            "\": {\"value\": " + buffer + ", \"unit\": \"" + names[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}


std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void HostSpeed::sample() {
  static std::vector<std::uint64_t> table(std::size_t{1} << 15);  // 256 KiB
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto next = [&x]() {
    std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  const std::uint64_t t0 = now_ns();
  const std::uint64_t c0 = cpu_ns();
  for (std::uint64_t& v : table) {
    v = next();
  }
  std::uint64_t sum = 0;
  std::uint64_t at = 0;
  for (std::uint64_t i = 0; i < 60000; ++i) {
    at = (table[at] ^ i) & (table.size() - 1);
    sum += at;
  }
  std::vector<std::uint64_t> heap;
  heap.reserve(4096);
  for (int i = 0; i < 12000; ++i) {
    heap.push_back(next() ^ sum);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    if (heap.size() >= 4096) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      sum += heap.back();
      heap.pop_back();
    }
  }
  // Allocator churn: small blocks of mixed sizes, freed in shuffled order.
  static std::vector<void*> blocks(2000);
  for (int round = 0; round < 2; ++round) {
    for (void*& b : blocks) {
      b = std::malloc(16 + next() % 240);
    }
    for (std::size_t i = blocks.size(); i > 1; --i) {
      std::swap(blocks[i - 1], blocks[next() % i]);
    }
    for (void* b : blocks) {
      sum += reinterpret_cast<std::uintptr_t>(b) & 0xFF;
      std::free(b);
    }
  }
  cpu_ns_.push_back(static_cast<double>(cpu_ns() - c0));
  wall_ns_.push_back(static_cast<double>(now_ns() - t0));
  // Keeps the work observable so the compiler cannot drop it.
  static volatile std::uint64_t sink;
  sink = sum;
}

double HostSpeed::wall_factor() const { return kReferenceNs / median(wall_ns_); }

double HostSpeed::cpu_factor() const { return kReferenceNs / median(cpu_ns_); }

void HostSpeed::print(const Report& report, const std::string& what) const {
  report.note(what + ".calibration_wall_ms", median(wall_ns_) / 1e6, "ms", wall_ns_.size());
  report.note(what + ".calibration_cpu_ms", median(cpu_ns_) / 1e6, "ms", cpu_ns_.size());
}

}  // namespace perfbench
