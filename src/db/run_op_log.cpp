#include "db/run_op_log.hpp"

#include "common/crc32.hpp"
#include "obs/metrics.hpp"

namespace wtc::db {
namespace {

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80u);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

[[nodiscard]] std::uint64_t zigzag(std::int64_t value) noexcept {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

[[nodiscard]] std::int64_t unzigzag(std::uint64_t value) noexcept {
  return static_cast<std::int64_t>(value >> 1) ^
         -static_cast<std::int64_t>(value & 1);
}

/// Bounds-checked varint read; false on truncation or a >10-byte runaway.
/// Most logged values fit one byte, which takes the first branch.
bool get_varint(std::span<const std::uint8_t> bytes, std::size_t& at,
                std::uint64_t& out) {
  if (at < bytes.size() && bytes[at] < 0x80u) {
    out = bytes[at++];
    return true;
  }
  out = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (at >= bytes.size()) {
      return false;
    }
    const std::uint8_t byte = bytes[at++];
    out |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) {
      return true;
    }
  }
  return false;  // continuation bit set past 64 payload bits
}

[[nodiscard]] std::uint32_t load_le32(std::span<const std::uint8_t> bytes,
                                      std::size_t at) noexcept {
  return static_cast<std::uint32_t>(bytes[at]) |
         static_cast<std::uint32_t>(bytes[at + 1]) << 8 |
         static_cast<std::uint32_t>(bytes[at + 2]) << 16 |
         static_cast<std::uint32_t>(bytes[at + 3]) << 24;
}

void put_le32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  out.push_back(static_cast<std::uint8_t>(value));
  out.push_back(static_cast<std::uint8_t>(value >> 8));
  out.push_back(static_cast<std::uint8_t>(value >> 16));
  out.push_back(static_cast<std::uint8_t>(value >> 24));
}

[[nodiscard]] std::uint32_t payload_crc(std::span<const std::uint8_t> payload) {
  return common::crc32(std::as_bytes(std::span(payload)));
}

/// Smallest encoded event: op, status, flags, then eight one-byte varints.
constexpr std::size_t kMinEventBytes = 11;

/// Decodes one event into `event` (value-initialized by the caller);
/// false (with `error` set) on truncation/invalidity.
bool decode_event(std::span<const std::uint8_t> bytes, std::size_t& at,
                  sim::Time& last_time, ApiEvent& event, OpLogError& error) {
  if (bytes.size() - at < 3) {
    error = OpLogError::Truncated;
    return false;
  }
  const std::uint8_t op = bytes[at++];
  const std::uint8_t status = bytes[at++];
  const std::uint8_t flags = bytes[at++];
  if (op > static_cast<std::uint8_t>(ApiOp::TxnEnd) ||
      status > static_cast<std::uint8_t>(Status::BadGroup) ||
      (flags & ~0x01u) != 0) {
    error = OpLogError::BadEvent;
    return false;
  }
  std::uint64_t dt = 0, client = 0, thread = 0, table = 0, record = 0,
                group = 0, field = 0, payload_len = 0;
  if (!get_varint(bytes, at, dt) || !get_varint(bytes, at, client) ||
      !get_varint(bytes, at, thread) || !get_varint(bytes, at, table) ||
      !get_varint(bytes, at, record) || !get_varint(bytes, at, group) ||
      !get_varint(bytes, at, field) || !get_varint(bytes, at, payload_len)) {
    error = OpLogError::Truncated;
    return false;
  }
  if (client > 0xFFFFFFFFull || thread > 0xFFFFFFFFull || table > 0xFFFFull ||
      record > 0xFFFFFFFFull || group > 0xFFFFFFFFull || field > 0xFFFFull ||
      payload_len > std::tuple_size_v<decltype(ApiEvent::payload)>) {
    error = OpLogError::BadEvent;
    return false;
  }
  const std::int64_t delta = unzigzag(dt);
  event.op = static_cast<ApiOp>(op);
  event.status = static_cast<Status>(status);
  event.is_update = (flags & 1u) != 0;
  event.time = last_time + static_cast<sim::Time>(delta);
  last_time = event.time;
  event.client = static_cast<sim::ProcessId>(client);
  event.thread = static_cast<std::uint32_t>(thread);
  event.table = static_cast<TableId>(table);
  event.record = static_cast<RecordIndex>(record);
  event.group = static_cast<std::uint32_t>(group);
  event.field = static_cast<FieldId>(field);
  event.payload_len = static_cast<std::uint8_t>(payload_len);
  for (std::uint8_t f = 0; f < event.payload_len; ++f) {
    std::uint64_t value = 0;
    if (!get_varint(bytes, at, value)) {
      error = OpLogError::Truncated;
      return false;
    }
    const std::int64_t wide = unzigzag(value);
    if (wide < INT32_MIN || wide > INT32_MAX) {
      error = OpLogError::BadEvent;
      return false;
    }
    event.payload[f] = static_cast<std::int32_t>(wide);
  }
  return true;
}

}  // namespace

std::string_view to_string(OpLogError error) noexcept {
  switch (error) {
    case OpLogError::None: return "None";
    case OpLogError::CannotOpen: return "CannotOpen";
    case OpLogError::BadMagic: return "BadMagic";
    case OpLogError::Truncated: return "Truncated";
    case OpLogError::BadCrc: return "BadCrc";
    case OpLogError::BadEvent: return "BadEvent";
  }
  return "?";
}

void encode_op_log_event(std::vector<std::uint8_t>& out, const ApiEvent& event,
                         sim::Time& last_time) {
  out.push_back(static_cast<std::uint8_t>(event.op));
  out.push_back(static_cast<std::uint8_t>(event.status));
  out.push_back(event.is_update ? 1u : 0u);
  put_varint(out, zigzag(static_cast<std::int64_t>(event.time) -
                         static_cast<std::int64_t>(last_time)));
  last_time = event.time;
  put_varint(out, event.client);
  put_varint(out, event.thread);
  put_varint(out, event.table);
  put_varint(out, event.record);
  put_varint(out, event.group);
  put_varint(out, event.field);
  const std::uint8_t n = static_cast<std::uint8_t>(
      std::min<std::size_t>(event.payload_len, event.payload.size()));
  put_varint(out, n);
  for (std::uint8_t f = 0; f < n; ++f) {
    put_varint(out, zigzag(event.payload[f]));
  }
}

OpLogReadResult decode_op_log(std::span<const std::uint8_t> bytes) {
  OpLogReadResult result;
  // All or nothing: a rejected log keeps no events from earlier chunks.
  const auto fail = [&result](OpLogError error, std::size_t offset) {
    result.error = error;
    result.error_offset = offset;
    result.events.clear();
    return std::move(result);
  };
  if (bytes.size() < 8) {
    return fail(OpLogError::Truncated, bytes.size());
  }
  if (load_le32(bytes, 0) != kOpLogMagic || load_le32(bytes, 4) != kOpLogVersion) {
    return fail(OpLogError::BadMagic, 0);
  }
  // One allocation up front: each chunk whose payload is present holds at
  // most min(event_count, payload_len / kMinEventBytes) events, so a lying
  // event_count cannot inflate the reservation past the input's size.
  std::size_t capacity = 0;
  for (std::size_t at = 8; bytes.size() - at >= 12;) {
    const std::uint32_t payload_len = load_le32(bytes, at);
    at += 12;
    if (bytes.size() - at < payload_len) {
      break;
    }
    capacity += std::min<std::size_t>(load_le32(bytes, at - 8),
                                      payload_len / kMinEventBytes);
    at += payload_len;
  }
  result.events.reserve(capacity);
  ApiEvent spare;
  std::size_t at = 8;
  sim::Time last_time = 0;
  while (at < bytes.size()) {
    if (bytes.size() - at < 12) {
      return fail(OpLogError::Truncated, at);
    }
    const std::uint32_t payload_len = load_le32(bytes, at);
    const std::uint32_t event_count = load_le32(bytes, at + 4);
    const std::uint32_t crc = load_le32(bytes, at + 8);
    at += 12;
    if (bytes.size() - at < payload_len) {
      return fail(OpLogError::Truncated, at);
    }
    const auto payload = bytes.subspan(at, payload_len);
    if (payload_crc(payload) != crc) {
      return fail(OpLogError::BadCrc, at);
    }
    std::size_t payload_at = 0;
    for (std::uint32_t i = 0; i < event_count; ++i) {
      // Events decode in place. No valid event lies past the reservation,
      // so one that would is decoded into `spare` only to find its error.
      ApiEvent& event = result.events.size() < result.events.capacity()
                            ? result.events.emplace_back()
                            : spare;
      OpLogError error = OpLogError::None;
      if (!decode_event(payload, payload_at, last_time, event, error)) {
        return fail(error, at + payload_at);
      }
    }
    if (payload_at != payload_len) {
      // Trailing bytes a CRC-valid chunk never has: a framing lie.
      return fail(OpLogError::BadEvent, at + payload_at);
    }
    at += payload_len;
  }
  return result;
}

OpLogReadResult load_op_log(const std::string& path) {
  OpLogReadResult result;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    result.error = OpLogError::CannotOpen;
    return result;
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[65536];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof chunk, file)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  std::fclose(file);
  return decode_op_log(bytes);
}

OpLogWriter::OpLogWriter(const std::string& path, std::uint32_t chunk_events)
    : chunk_events_(chunk_events == 0 ? 1 : chunk_events) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    failed_ = true;
    return;
  }
  std::vector<std::uint8_t> header;
  put_le32(header, kOpLogMagic);
  put_le32(header, kOpLogVersion);
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size()) {
    failed_ = true;
  }
  bytes_ += header.size();
}

OpLogWriter::~OpLogWriter() {
  close();
}

void OpLogWriter::add(const ApiEvent& event) {
  if (!ok()) {
    return;
  }
  encode_op_log_event(buffer_, event, last_time_);
  if (++buffered_events_ >= chunk_events_) {
    flush_chunk();
  }
}

void OpLogWriter::flush_chunk() {
  if (file_ == nullptr || buffered_events_ == 0) {
    return;
  }
  std::vector<std::uint8_t> frame;
  put_le32(frame, static_cast<std::uint32_t>(buffer_.size()));
  put_le32(frame, buffered_events_);
  put_le32(frame, payload_crc(buffer_));
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size() ||
      std::fwrite(buffer_.data(), 1, buffer_.size(), file_) != buffer_.size()) {
    failed_ = true;
  }
  const std::uint64_t written = frame.size() + buffer_.size();
  bytes_ += written;
  obs::count(obs::Counter::oplog_bytes, written);
  buffer_.clear();
  buffered_events_ = 0;
}

bool OpLogWriter::close() {
  if (file_ == nullptr) {
    return !failed_;
  }
  flush_chunk();
  if (std::fclose(file_) != 0) {
    failed_ = true;
  }
  file_ = nullptr;
  return !failed_;
}

void RunOpLog::on_api_event(const ApiEvent& event) {
  if (event.status == Status::Ok) {
    events_.push_back(event);
    obs::count(obs::Counter::oplog_recorded);
    if (writer_ != nullptr) {
      writer_->add(event);
    }
  }
  if (next_ != nullptr) {
    next_->on_api_event(event);
  }
}

bool RunOpLog::open_file(const std::string& path) {
  writer_ = std::make_unique<OpLogWriter>(path);
  if (!writer_->ok()) {
    writer_.reset();
    return false;
  }
  return true;
}

bool RunOpLog::close_file() {
  if (writer_ == nullptr) {
    return true;
  }
  const bool ok = writer_->close();
  writer_.reset();
  return ok;
}

std::vector<std::uint8_t> RunOpLog::serialize() const {
  std::vector<std::uint8_t> out;
  put_le32(out, kOpLogMagic);
  put_le32(out, kOpLogVersion);
  std::vector<std::uint8_t> payload;
  sim::Time last_time = 0;
  std::uint32_t buffered = 0;
  constexpr std::uint32_t kChunkEvents = 1024;
  const auto flush = [&]() {
    if (buffered == 0) {
      return;
    }
    put_le32(out, static_cast<std::uint32_t>(payload.size()));
    put_le32(out, buffered);
    put_le32(out, payload_crc(payload));
    out.insert(out.end(), payload.begin(), payload.end());
    payload.clear();
    buffered = 0;
  };
  for (const ApiEvent& event : events_) {
    encode_op_log_event(payload, event, last_time);
    if (++buffered >= kChunkEvents) {
      flush();
    }
  }
  flush();
  return out;
}

bool RunOpLog::save(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = serialize();
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  obs::count(obs::Counter::oplog_bytes, bytes.size());
  return std::fclose(file) == 0 && ok;
}

}  // namespace wtc::db
