// Mechanism microbenchmarks: the per-octet and per-packet kernels the PR 8
// vectorization targets, measured in isolation so regressions in one
// kernel are visible without the noise of the full data path.
//
//   * CRC32: scalar byte-at-a-time vs slicing-by-8 vs the hardware path
//     (PCLMUL / ARMv8 CRC), plus the runtime-dispatched entry point.
//   * CRC16: the slicing-by-8 CCITT kernel behind the crc16 mechanism.
//   * XOR keystream cipher: scalar octet loop vs word-at-a-time.
//   * Sequencing: SequencerModule in-order release, per-packet HandleData
//     vs whole-train ProcessBurst (the burst engine's hot path).
//
// Acceptance (ISSUE PR 8): dispatched/vectorized CRC32 >= 2x scalar.
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/rng.h"
#include "dacapo/checksum.h"
#include "dacapo/modules.h"
#include "dacapo/packet.h"

namespace {

using namespace cool;
using namespace cool::dacapo;

// Measures a byte-churning kernel in MB/s: run `fn(buf)` until `window`
// elapses, count octets processed.
template <typename Fn>
double MeasureMBps(std::span<const std::uint8_t> buf, Duration window,
                   Fn&& fn) {
  // Warm-up round primes caches and (for the dispatched CRC) runs the
  // one-time kernel self-check outside the timed window.
  fn(buf);
  std::uint64_t bytes = 0;
  const Stopwatch sw;
  const TimePoint end = Now() + window;
  while (Now() < end) {
    for (int i = 0; i < 16; ++i) fn(buf);
    bytes += 16 * buf.size();
  }
  return static_cast<double>(bytes) / ToSeconds(sw.Elapsed()) / 1e6;
}

// Port double for the sequencing benchmark: collects releases, recycles
// nothing, never blocks.
class CollectPort : public ModulePort {
 public:
  explicit CollectPort(PacketBudget& budget) : budget_(budget) {}

  void ForwardUp(PacketPtr pkt) override { up_.push_back(std::move(pkt)); }
  void ForwardDown(PacketPtr pkt) override { up_.push_back(std::move(pkt)); }
  void ForwardUpBatch(std::vector<PacketPtr>& pkts) override {
    for (auto& p : pkts) up_.push_back(std::move(p));
    pkts.clear();
  }
  void ForwardDownBatch(std::vector<PacketPtr>& pkts) override {
    ForwardUpBatch(pkts);
  }
  void ControlUp(ControlMsg) override {}
  void ControlDown(ControlMsg) override {}
  PacketBudget& budget() override { return budget_; }
  std::string_view channel_name() const override { return "bench"; }

  std::vector<PacketPtr>& released() { return up_; }

 private:
  PacketBudget& budget_;
  std::vector<PacketPtr> up_;
};

void PutSeq(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

// Sequencer in-order receive rate, packets/s. `batched` drives the module
// through ProcessBurst in trains of 32; otherwise one HandleData per
// packet. Packets are recycled: after release, the next sequence header is
// pushed back on and the packet re-enters.
double MeasureSequencing(bool batched, Duration window) {
  constexpr std::size_t kTrain = 32;
  auto budget = std::make_shared<PacketBudget>(
      (kTrain + 4) * (Packet::kHeadroom + 256 + Packet::kTailroom));
  SequencerModule seq;
  CollectPort port(*budget);

  std::vector<PacketPtr> pool;
  const std::uint8_t payload[64] = {0x5A};
  for (std::size_t i = 0; i < kTrain; ++i) {
    auto pkt = budget->Make(payload);
    if (!pkt.ok()) return 0;
    pool.push_back(std::move(pkt).value());
  }

  std::uint32_t next_seq = 0;
  std::uint64_t processed = 0;
  const Stopwatch sw;
  const TimePoint end = Now() + window;
  while (Now() < end) {
    // Stamp the train in order.
    for (auto& pkt : pool) {
      std::uint8_t header[4];
      PutSeq(header, next_seq++);
      if (!pkt->PushHeader(header).ok()) return 0;
    }
    if (batched) {
      PacketBatch batch;
      for (auto& pkt : pool) batch.PushBack(std::move(pkt));
      pool.clear();
      seq.ProcessBurst(Direction::kUp, batch, port);
    } else {
      for (auto& pkt : pool) {
        seq.HandleData(Direction::kUp, std::move(pkt), port);
      }
      pool.clear();
    }
    processed += kTrain;
    // Everything was in order, so everything was released; recycle.
    pool.swap(port.released());
    if (pool.size() != kTrain) return 0;  // lost packets: invalid run
  }
  return static_cast<double>(processed) / ToSeconds(sw.Elapsed());
}

void AddRow(cool::bench::Table& table, std::vector<bench::BenchRecord>& recs,
            const char* name, double mbps) {
  table.AddRow({name, cool::bench::Fmt("%.0f", mbps)});
  bench::BenchRecord rec;
  rec.name = name;
  rec.mbps = mbps;
  recs.push_back(std::move(rec));
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = cool::bench::BenchArgs::Parse(argc, argv);
  const Duration window =
      args.smoke ? cool::milliseconds(30) : cool::milliseconds(200);

  std::printf("=== Mechanism microbenchmarks (PR 8 kernels) ===%s\n\n",
              args.smoke ? " (smoke mode)" : "");

  // 4 KiB blocks: large enough that per-call dispatch amortizes away and
  // the per-octet kernel dominates; the paper's mechanisms see packets in
  // the hundreds of octets to tens of KiB.
  std::vector<std::uint8_t> buf(4096);
  Rng rng(0x9E3779B9);
  for (auto& b : buf) b = rng.NextByte();

  std::vector<cool::bench::BenchRecord> records;
  cool::bench::Table table({"kernel", "MB/s"});

  volatile std::uint32_t sink32 = 0;
  AddRow(table, records, "crc32 scalar 4k",
         MeasureMBps(buf, window, [&](std::span<const std::uint8_t> b) {
           sink32 = sink32 ^ cool::dacapo::Crc32Scalar(b);
         }));
  AddRow(table, records, "crc32 slicing8 4k",
         MeasureMBps(buf, window, [&](std::span<const std::uint8_t> b) {
           sink32 = sink32 ^ cool::dacapo::Crc32Slicing8(b);
         }));
  if (cool::dacapo::Crc32HwAvailable()) {
    AddRow(table, records, "crc32 hw 4k",
           MeasureMBps(buf, window, [&](std::span<const std::uint8_t> b) {
             sink32 = sink32 ^ cool::dacapo::Crc32Hw(b);
           }));
  } else {
    std::printf("  (no CRC32 hardware path on this machine)\n");
  }
  AddRow(table, records, "crc32 dispatch 4k",
         MeasureMBps(buf, window, [&](std::span<const std::uint8_t> b) {
           sink32 = sink32 ^ cool::dacapo::Crc32(b);
         }));

  volatile std::uint16_t sink16 = 0;
  AddRow(table, records, "crc16 4k",
         MeasureMBps(buf, window, [&](std::span<const std::uint8_t> b) {
           sink16 = sink16 ^ cool::dacapo::Crc16(b);
         }));

  std::vector<std::uint8_t> xbuf = buf;
  AddRow(table, records, "xor scalar 4k",
         MeasureMBps(xbuf, window, [&](std::span<const std::uint8_t>) {
           cool::dacapo::XorCipherScalar(xbuf, 0x0123456789ABCDEFull);
         }));
  AddRow(table, records, "xor wide 4k",
         MeasureMBps(xbuf, window, [&](std::span<const std::uint8_t>) {
           cool::dacapo::XorCipher(xbuf, 0x0123456789ABCDEFull);
         }));

  const double seq_unbatched = MeasureSequencing(false, window);
  const double seq_batched = MeasureSequencing(true, window);
  table.AddRow({"seq unbatched", cool::bench::Fmt("%.0f pkt/s", seq_unbatched)});
  table.AddRow({"seq batched", cool::bench::Fmt("%.0f pkt/s", seq_batched)});
  {
    cool::bench::BenchRecord rec;
    rec.name = "seq unbatched";
    rec.msgs_per_sec = seq_unbatched;
    records.push_back(std::move(rec));
  }
  {
    cool::bench::BenchRecord rec;
    rec.name = "seq batched";
    rec.msgs_per_sec = seq_batched;
    records.push_back(std::move(rec));
  }

  table.Print();

  // The acceptance ratio, spelled out so a regression is obvious in logs.
  double slicing = 0, scalar = 0;
  for (const auto& r : records) {
    if (r.name == "crc32 slicing8 4k") slicing = r.mbps;
    if (r.name == "crc32 scalar 4k") scalar = r.mbps;
  }
  if (scalar > 0) {
    std::printf("\ncrc32 slicing8/scalar speedup: %.2fx (target >= 2x)\n",
                slicing / scalar);
  }

  if (!args.json_path.empty() &&
      !cool::bench::WriteJson(args.json_path, records)) {
    return 1;
  }
  return 0;
}
