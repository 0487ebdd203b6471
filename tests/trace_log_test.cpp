// VCD trace writer and logging subsystem tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "vhp/common/log.hpp"
#include "vhp/sim/kernel.hpp"
#include "vhp/sim/module.hpp"
#include "vhp/sim/trace.hpp"

namespace vhp::sim {
namespace {

struct Harness : Module {
  explicit Harness(Kernel& k) : Module(k, "tb") {}
  using Module::make_bool_signal;
  using Module::make_signal;
  using Module::thread;
};

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class VcdTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // One file per test: ctest runs this fixture's tests as concurrent
  // processes, which must not write or remove each other's file.
  std::string path_ =
      ::testing::TempDir() + "vhp_vcd_test." +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".vcd";
};

TEST_F(VcdTest, HeaderDeclaresTracedSignals) {
  Kernel k;
  Harness tb{k};
  auto& flag = tb.make_bool_signal("flag");
  auto& value = tb.make_signal<u32>("value", 0);
  {
    VcdWriter vcd{k, path_};
    vcd.trace(flag, "flag");
    vcd.trace(value, "value");
    k.run_until(10);
  }
  const std::string vcd = read_file(path_);
  EXPECT_NE(vcd.find("$timescale"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 ! flag $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 32 \" value $end"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(vcd.find("$dumpvars"), std::string::npos);
}

TEST_F(VcdTest, RecordsChangesWithTimestamps) {
  Kernel k;
  Harness tb{k};
  auto& flag = tb.make_bool_signal("flag");
  auto& value = tb.make_signal<u32>("value", 0);
  tb.thread("driver", [&] {
    wait(5);
    flag.write(true);
    value.write(5);  // 0b101
    wait(5);
    flag.write(false);
    wait(1);
  });
  {
    VcdWriter vcd{k, path_};
    vcd.trace(flag, "flag");
    vcd.trace(value, "value");
    k.run_until(20);
  }
  const std::string vcd = read_file(path_);
  EXPECT_NE(vcd.find("#5\n"), std::string::npos);
  EXPECT_NE(vcd.find("1!"), std::string::npos);   // flag rises at 5
  EXPECT_NE(vcd.find("b101 \""), std::string::npos);
  EXPECT_NE(vcd.find("#10\n0!"), std::string::npos);  // falls at 10
}

TEST_F(VcdTest, ClockProducesAlternatingPattern) {
  Kernel k;
  Clock clk{k, "clk", 2};
  {
    VcdWriter vcd{k, path_};
    vcd.trace(clk, "clk");
    k.run_until(6);
  }
  const std::string vcd = read_file(path_);
  // Rising edges at 0,2,4; falling at 1,3,5.
  EXPECT_NE(vcd.find("#0\n1!"), std::string::npos);
  EXPECT_NE(vcd.find("#1\n0!"), std::string::npos);
  EXPECT_NE(vcd.find("#2\n1!"), std::string::npos);
}

TEST_F(VcdTest, UntracedSignalsDoNotAppear) {
  Kernel k;
  Harness tb{k};
  auto& traced = tb.make_bool_signal("traced");
  auto& hidden = tb.make_bool_signal("hidden");
  tb.thread("driver", [&] {
    traced.write(true);
    hidden.write(true);
    wait(1);
  });
  {
    VcdWriter vcd{k, path_};
    vcd.trace(traced, "traced");
    k.run_until(5);
  }
  const std::string vcd = read_file(path_);
  EXPECT_NE(vcd.find("traced"), std::string::npos);
  EXPECT_EQ(vcd.find("hidden"), std::string::npos);
}

TEST(LogThreshold, RuntimeControl) {
  using log_detail::set_threshold;
  using log_detail::threshold;
  const LogLevel before = threshold();
  set_threshold(LogLevel::kError);
  Logger log{"test"};
  EXPECT_TRUE(log.enabled(LogLevel::kError));
  EXPECT_FALSE(log.enabled(LogLevel::kInfo));
  set_threshold(LogLevel::kTrace);
  EXPECT_TRUE(log.enabled(LogLevel::kTrace));
  set_threshold(before);
}

}  // namespace
}  // namespace vhp::sim
