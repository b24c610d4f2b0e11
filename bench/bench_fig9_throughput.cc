// Reproduction of the paper's Figure 9: "Measurements of throughput for
// different protocol configurations using different packet sizes ...
// the numbers are given in Mbps."
//
// Setup mirrors the paper: "protocol stacks with the measuring A module
// which sends dummy packets from a pre-allocated buffer on the sender
// side, on the receiver side received packets per time interval is
// counted, the packet buffers are released. The T module used encapsulates
// TCP. The C modules is an idle-repeat-request (IRQ) module and dummy
// modules that just forward the packets without altering the packets."
//
// Expected shape (paper §6):
//  * throughput increases with packet size for a given stack,
//  * throughput for a given packet size is little affected when the dummy
//    count grows from 0 to 40,
//  * the IRQ configuration is far lower — "caused by the ineffective flow
//    control of the idle-repeat-request protocol".
#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "common/thread.h"
#include "dacapo/session.h"

namespace {

using namespace cool;
using dacapo::ChannelOptions;
using dacapo::ModuleGraphSpec;

// Testbed stand-in: ~90 Mbit/s of usable rate (155 Mb/s ATM minus overhead,
// the right order for the paper's era) and campus-scale latency.
sim::LinkProperties TestbedLink() {
  sim::LinkProperties link;
  link.bandwidth_bps = 90'000'000;
  link.latency = microseconds(400);
  return link;
}

ModuleGraphSpec DummyChain(int count) {
  ModuleGraphSpec spec;
  for (int i = 0; i < count; ++i) {
    spec.chain.push_back({dacapo::mechanisms::kDummy, {}});
  }
  return spec;
}

ModuleGraphSpec IrqChain() {
  ModuleGraphSpec spec;
  dacapo::MechanismSpec irq;
  irq.name = dacapo::mechanisms::kIrq;
  irq.params["rto_us"] = 10'000;
  spec.chain.push_back(irq);
  return spec;
}

// Runs one configuration at one packet size; returns measured Mbps at the
// receiving A module.
double MeasureMbps(const ModuleGraphSpec& graph, std::size_t packet_bytes,
                   Duration duration) {
  sim::Network net(TestbedLink());
  dacapo::Acceptor acceptor(&net, {"receiver", 6100});
  if (!acceptor.Listen().ok()) return -1;

  ChannelOptions options;
  options.transport = ChannelOptions::Transport::kStream;
  options.graph = graph;
  options.packet_capacity = 64 * 1024;

  Result<std::unique_ptr<dacapo::Session>> rx_session(
      Status(InternalError("unset")));
  Thread accept_thread([&] {
    // The paper's measuring A module: count and release.
    rx_session = acceptor.Accept(dacapo::AppAModule::DeliveryMode::kCountOnly);
  });
  dacapo::Connector connector(&net, "sender");
  auto tx_session = connector.Connect({"receiver", 6100}, options);
  accept_thread.join();
  if (!tx_session.ok() || !rx_session.ok()) return -1;

  // Pre-allocated send buffer, as in the paper.
  const std::vector<std::uint8_t> payload(packet_bytes, 0xA5);

  const TimePoint end = Now() + duration;
  while (Now() < end) {
    if (!(*tx_session)->Send(payload).ok()) break;
  }
  // Let in-flight packets drain.
  std::this_thread::sleep_for(milliseconds(120));

  const dacapo::AppAModule::Stats stats = (*rx_session)->stats();
  (*tx_session)->Close();
  (*rx_session)->Close();
  if (stats.packets_rx < 2) return 0.0;
  const double seconds = ToSeconds(stats.last_rx - stats.first_rx);
  if (seconds <= 0) return 0.0;
  return static_cast<double>(stats.bytes_rx) * 8.0 / seconds / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = cool::bench::BenchArgs::Parse(argc, argv);
  std::printf(
      "=== Figure 9: Da CaPo throughput (Mbps) vs packet size ===\n"
      "link: 90 Mbit/s, 400 us one-way; T module encapsulates TCP%s\n\n",
      args.smoke ? " (smoke mode)" : "");

  // Smoke mode: corner sizes and the cheap configs only, shorter windows.
  const std::vector<std::size_t> packet_sizes =
      args.smoke ? std::vector<std::size_t>{1024, 16384, 65536}
                 : std::vector<std::size_t>{1024, 2048, 4096, 8192, 16384,
                                            32768, 65536};
  struct Config {
    const char* name;
    cool::dacapo::ModuleGraphSpec graph;
  };
  std::vector<Config> configs;
  configs.push_back({"0 dummy", DummyChain(0)});
  configs.push_back({"10 dummy", DummyChain(10)});
  if (!args.smoke) {
    configs.push_back({"20 dummy", DummyChain(20)});
    configs.push_back({"40 dummy", DummyChain(40)});
  }
  configs.push_back({"IRQ", IrqChain()});
  const cool::Duration window =
      args.smoke ? cool::milliseconds(120) : cool::milliseconds(250);

  std::vector<std::string> headers = {"packet"};
  for (const Config& config : configs) headers.push_back(config.name);
  cool::bench::Table table(std::move(headers));
  std::vector<cool::bench::BenchRecord> records;
  for (const std::size_t size : packet_sizes) {
    std::vector<std::string> row;
    row.push_back(std::to_string(size / 1024) + " KiB");
    for (const Config& config : configs) {
      const double mbps = MeasureMbps(config.graph, size, window);
      row.push_back(cool::bench::Fmt("%.1f", mbps));
      std::fflush(stdout);
      cool::bench::BenchRecord rec;
      rec.name = std::string(config.name) + " / " +
                 std::to_string(size / 1024) + " KiB";
      rec.mbps = mbps;
      rec.msgs_per_sec =
          mbps * 1e6 / 8.0 / static_cast<double>(size);  // packets/s
      records.push_back(std::move(rec));
    }
    table.AddRow(std::move(row));
  }
  table.Print();

  if (!args.json_path.empty() &&
      !cool::bench::WriteJson(args.json_path, records)) {
    return 1;
  }

  std::printf(
      "\nshape checks (paper §6):\n"
      "  * columns 0..40 dummy should be close to each other per row\n"
      "    (module interfaces + packet forwarding cost little),\n"
      "  * every column should grow with packet size,\n"
      "  * IRQ should sit far below the dummy configurations\n"
      "    (stop-and-wait: ~packet_size/RTT).\n");
  return 0;
}
