#include "stream/flow.h"

#include <gtest/gtest.h>

#include <thread>

#include "common/thread.h"

namespace cool::stream {
namespace {

sim::LinkProperties QuickLink() {
  sim::LinkProperties link;
  link.bandwidth_bps = 0;
  link.latency = microseconds(100);
  return link;
}

TEST(FlowSpecTest, CdrRoundTrip) {
  FlowSpec spec;
  spec.frame_rate_hz = 30.0;
  spec.frame_bytes = 4096;
  spec.qos = *qos::QoSSpec::FromParameters(
      {qos::RequireLossPermille(0, 0), qos::RequireOrdering(true)});

  cdr::Encoder enc(cdr::ByteOrder::kLittleEndian, 0);
  spec.Encode(enc);
  cdr::Decoder dec(enc.buffer().view(), cdr::ByteOrder::kLittleEndian, 0);
  auto decoded = FlowSpec::Decode(dec);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, spec);
}

TEST(FlowSpecTest, RejectsImplausibleRate) {
  cdr::Encoder enc(cdr::ByteOrder::kLittleEndian, 0);
  enc.PutDouble(-5.0);
  enc.PutULong(100);
  enc.PutULong(0);
  cdr::Decoder dec(enc.buffer().view(), cdr::ByteOrder::kLittleEndian, 0);
  EXPECT_FALSE(FlowSpec::Decode(dec).ok());
}

TEST(FlowSpecTest, DerivedQuantities) {
  FlowSpec spec;
  spec.frame_rate_hz = 25.0;
  spec.frame_bytes = 10'000;
  EXPECT_EQ(spec.NominalKbps(), 2000u);  // 25 * 10k * 8 / 1000
  EXPECT_EQ(spec.FramePeriod(), milliseconds(40));
}

TEST(FlowStatsTest, CdrRoundTrip) {
  FlowStats s;
  s.frames_received = 100;
  s.frames_lost = 3;
  s.frames_reordered = 1;
  s.measured_fps = 24.7;
  s.throughput_kbps = 1980.5;
  s.mean_jitter_us = 140.0;
  s.p95_jitter_us = 900.0;
  cdr::Encoder enc(cdr::ByteOrder::kBigEndian, 0);
  s.EncodeStats(enc);
  cdr::Decoder dec(enc.buffer().view(), cdr::ByteOrder::kBigEndian, 0);
  auto decoded = FlowStats::DecodeStats(dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->frames_received, 100u);
  EXPECT_EQ(decoded->p95_jitter_us, 900.0);
}

class FlowPipeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<sim::Network>(QuickLink());
    acceptor_ = std::make_unique<dacapo::Acceptor>(
        net_.get(), sim::Address{"rx", 6700});
    ASSERT_TRUE(acceptor_->Listen().ok());

    dacapo::ChannelOptions options;
    options.transport = dacapo::ChannelOptions::Transport::kDatagram;
    Result<std::unique_ptr<dacapo::Session>> rx(
        Status(InternalError("unset")));
    Thread accept_thread([&] { rx = acceptor_->Accept(); });
    dacapo::Connector connector(net_.get(), "tx");
    auto tx = connector.Connect({"rx", 6700}, options);
    accept_thread.join();
    ASSERT_TRUE(tx.ok());
    ASSERT_TRUE(rx.ok());
    tx_session_ = std::move(tx).value();
    rx_session_ = std::move(rx).value();
  }

  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<dacapo::Acceptor> acceptor_;
  std::unique_ptr<dacapo::Session> tx_session_;
  std::unique_ptr<dacapo::Session> rx_session_;
};

TEST_F(FlowPipeTest, SourcePacesToFrameRate) {
  FlowSpec spec;
  spec.frame_rate_hz = 100.0;  // 10ms period
  spec.frame_bytes = 512;
  StreamSource source(tx_session_.get(), spec);
  StreamSink sink(rx_session_.get());
  ASSERT_TRUE(sink.Start().ok());
  ASSERT_TRUE(source.Start().ok());
  std::this_thread::sleep_for(milliseconds(500));
  source.Stop();
  std::this_thread::sleep_for(milliseconds(50));
  sink.Stop();

  const FlowStats stats = sink.stats();
  // ~50 frames in 500ms; allow generous slack for CI machines.
  EXPECT_GT(stats.frames_received, 30u);
  EXPECT_LT(stats.frames_received, 70u);
  EXPECT_NEAR(stats.measured_fps, 100.0, 25.0);
  EXPECT_EQ(stats.frames_lost, 0u);
}

TEST_F(FlowPipeTest, SinkCountsLossBySequenceGap) {
  // Drive the sink directly with frames that skip sequence numbers.
  StreamSink sink(rx_session_.get());
  ASSERT_TRUE(sink.Start().ok());
  auto send_frame = [&](std::uint32_t seq) {
    std::vector<std::uint8_t> frame(64);
    frame[0] = static_cast<std::uint8_t>(seq);
    frame[1] = static_cast<std::uint8_t>(seq >> 8);
    frame[2] = static_cast<std::uint8_t>(seq >> 16);
    frame[3] = static_cast<std::uint8_t>(seq >> 24);
    ASSERT_TRUE(tx_session_->Send(frame).ok());
  };
  send_frame(0);
  send_frame(1);
  send_frame(4);  // 2 and 3 lost
  send_frame(5);
  std::this_thread::sleep_for(milliseconds(100));
  sink.Stop();
  const FlowStats stats = sink.stats();
  EXPECT_EQ(stats.frames_received, 4u);
  EXPECT_EQ(stats.frames_lost, 2u);
}

TEST_F(FlowPipeTest, DoubleStartRefused) {
  FlowSpec spec;
  StreamSource source(tx_session_.get(), spec);
  ASSERT_TRUE(source.Start().ok());
  EXPECT_EQ(source.Start().code(), ErrorCode::kFailedPrecondition);
  source.Stop();

  StreamSink sink(rx_session_.get());
  ASSERT_TRUE(sink.Start().ok());
  EXPECT_EQ(sink.Start().code(), ErrorCode::kFailedPrecondition);
  sink.Stop();
}

TEST_F(FlowPipeTest, TinyFrameRejected) {
  FlowSpec spec;
  spec.frame_bytes = 2;  // smaller than the 4-byte header
  StreamSource source(tx_session_.get(), spec);
  EXPECT_EQ(source.Start().code(), ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace cool::stream
