#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "report.hpp"

namespace wtc::bench {
namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(BenchReport, EscapesQuoteBackslashAndControlCharacters) {
  Json doc;
  doc.field("path", "q\"x\\y\n\x01z");
  EXPECT_EQ(doc.str(),
            "{\n  \"path\": \"q\\\"x\\\\y\\u000a\\u0001z\"\n}");
  EXPECT_EQ(json_quote("tab\t\x1f~"), "\"tab\\u0009\\u001f~\"");
}

TEST(BenchReport, NestsAnObjectInAnArrayInAnObject) {
  Json doc;
  doc.field("n", -3).field("ok", true).field("u", 18446744073709551615ull);
  Json& arms = doc.object("outer").array("arms");
  arms.object().field("name", "a").field("x", 1u);
  arms.field({}, "b");
  doc.object("empty");
  doc.array("none");
  EXPECT_EQ(doc.str(),
            "{\n"
            "  \"n\": -3,\n"
            "  \"ok\": true,\n"
            "  \"u\": 18446744073709551615,\n"
            "  \"outer\": {\n"
            "    \"arms\": [\n"
            "      {\n"
            "        \"name\": \"a\",\n"
            "        \"x\": 1\n"
            "      },\n"
            "      \"b\"\n"
            "    ]\n"
            "  },\n"
            "  \"empty\": {},\n"
            "  \"none\": []\n"
            "}");
}

TEST(BenchReport, WritesDoublesAtTheRequestedPrecision) {
  Json doc;
  doc.field("p0", 2.5, 0)
      .field("p1", 680.04, 1)
      .field("p2", 1.0 / 3.0, 2)
      .field("p4", 0.99225, 4)
      .field("neg", -0.5, 3)
      .field("nan", std::nan(""), 2);
  EXPECT_EQ(doc.str(),
            "{\n"
            "  \"p0\": 2,\n"
            "  \"p1\": 680.0,\n"
            "  \"p2\": 0.33,\n"
            "  \"p4\": 0.9922,\n"
            "  \"neg\": -0.500,\n"
            "  \"nan\": null\n"
            "}");
}

class ReportFinishTest : public ::testing::Test {
 protected:
  ReportFinishTest() {
    path_ = std::filesystem::temp_directory_path() /
            ("wtc_bench_report_" + std::to_string(::getpid()) + ".json");
  }
  ~ReportFinishTest() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  std::filesystem::path path_;
};

TEST_F(ReportFinishTest, AllGatesPassReturnsZero) {
  Report report("demo");
  report.field("runs", 2);
  EXPECT_TRUE(report.gate(true, "never shown"));
  testing::internal::CaptureStderr();
  EXPECT_EQ(report.finish(path_.string()), 0);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(read_file(path_),
            "{\n"
            "  \"bench\": \"demo\",\n"
            "  \"runs\": 2,\n"
            "  \"gates_passed\": true,\n"
            "  \"failures\": []\n"
            "}\n");
}

TEST_F(ReportFinishTest, AnyFailedGateReturnsOneWithMessagesInOrder) {
  Report report("demo");
  EXPECT_FALSE(report.gate(false, "first \"gate\""));
  EXPECT_TRUE(report.gate(true, "passing gate"));
  EXPECT_FALSE(report.gate(false, "second gate"));
  testing::internal::CaptureStderr();
  EXPECT_EQ(report.finish(path_.string()), 1);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "GATE FAILED: first \"gate\"\nGATE FAILED: second gate\n");
  EXPECT_EQ(read_file(path_),
            "{\n"
            "  \"bench\": \"demo\",\n"
            "  \"gates_passed\": false,\n"
            "  \"failures\": [\n"
            "    \"first \\\"gate\\\"\",\n"
            "    \"second gate\"\n"
            "  ]\n"
            "}\n");
}

TEST_F(ReportFinishTest, UnwritablePathStillReturnsTheGateVerdict) {
  const std::string unwritable = (path_ / "missing_dir" / "out.json").string();
  Report failing("demo");
  failing.gate(false, "broken");
  testing::internal::CaptureStderr();
  EXPECT_EQ(failing.finish(unwritable), 1);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "warning: cannot write " + unwritable +
                "\nGATE FAILED: broken\n");

  Report passing("demo");
  passing.gate(true, "fine");
  testing::internal::CaptureStderr();
  EXPECT_EQ(passing.finish(unwritable), 0);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "warning: cannot write " + unwritable + "\n");
  EXPECT_FALSE(std::filesystem::exists(unwritable));
}

}  // namespace
}  // namespace wtc::bench
