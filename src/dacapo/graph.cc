#include "dacapo/graph.h"

#include <sstream>

#include "cdr/decoder.h"
#include "cdr/encoder.h"
#include "dacapo/modules.h"

namespace cool::dacapo {

std::string_view ProtocolFunctionName(ProtocolFunction f) noexcept {
  switch (f) {
    case ProtocolFunction::kForwarding: return "forwarding";
    case ProtocolFunction::kErrorDetection: return "error_detection";
    case ProtocolFunction::kRetransmission: return "retransmission";
    case ProtocolFunction::kOrdering: return "ordering";
    case ProtocolFunction::kEncryption: return "encryption";
    case ProtocolFunction::kFlowControl: return "flow_control";
    case ProtocolFunction::kFragmentation: return "fragmentation";
  }
  return "unknown";
}

std::string MechanismSpec::ToString() const {
  std::ostringstream os;
  os << name;
  if (!params.empty()) {
    os << "(";
    bool first = true;
    for (const auto& [k, v] : params) {
      if (!first) os << ",";
      first = false;
      os << k << "=" << v;
    }
    os << ")";
  }
  return os.str();
}

std::string ModuleGraphSpec::ToString() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (i != 0) os << " -> ";
    os << chain[i].ToString();
  }
  os << "]";
  return os.str();
}

corba::OctetSeq ModuleGraphSpec::Serialize() const {
  cdr::Encoder enc(cdr::ByteOrder::kLittleEndian);
  enc.PutULong(static_cast<corba::ULong>(chain.size()));
  for (const MechanismSpec& m : chain) {
    enc.PutString(m.name);
    enc.PutULong(static_cast<corba::ULong>(m.params.size()));
    for (const auto& [k, v] : m.params) {
      enc.PutString(k);
      enc.PutLongLong(v);
    }
  }
  const auto view = enc.buffer().view();
  return corba::OctetSeq(view.begin(), view.end());
}

Result<ModuleGraphSpec> ModuleGraphSpec::Deserialize(
    std::span<const corba::Octet> bytes) {
  cdr::Decoder dec(bytes, cdr::ByteOrder::kLittleEndian);
  ModuleGraphSpec spec;
  COOL_ASSIGN_OR_RETURN(corba::ULong count, dec.GetULong());
  if (count > 1024) {
    return Status(ProtocolError("implausible module graph size"));
  }
  for (corba::ULong i = 0; i < count; ++i) {
    MechanismSpec m;
    COOL_ASSIGN_OR_RETURN(m.name, dec.GetString());
    COOL_ASSIGN_OR_RETURN(corba::ULong nparams, dec.GetULong());
    if (nparams > 256) {
      return Status(ProtocolError("implausible mechanism param count"));
    }
    for (corba::ULong j = 0; j < nparams; ++j) {
      COOL_ASSIGN_OR_RETURN(corba::String key, dec.GetString());
      COOL_ASSIGN_OR_RETURN(corba::LongLong value, dec.GetLongLong());
      m.params[key] = value;
    }
    spec.chain.push_back(std::move(m));
  }
  return spec;
}

namespace {

// The crc16, crc32 and xor per_byte_ns are the kernels' own rates, from
// `build/bench/bench_mechanisms --smoke` on a 4-core x86-64 VM (rows
// "crc16 4k", "crc32 dispatch 4k", "xor wide 4k"; ns/B = 1000 / MB/s).
void RegisterBuiltins(MechanismRegistry& reg) {
  using Algorithm = ChecksumModule::Algorithm;

  {
    MechanismProperties p;
    p.function = ProtocolFunction::kForwarding;
    (void)reg.Register(mechanisms::kDummy, p, [](const MechanismSpec&) {
      return Result<std::unique_ptr<Module>>(std::make_unique<DummyModule>());
    });
  }
  {
    MechanismProperties p;
    p.function = ProtocolFunction::kErrorDetection;
    p.header_bytes = 1;
    p.per_byte_ns = 0.3;
    p.reliability_level = 1;
    (void)reg.Register(mechanisms::kParity, p, [](const MechanismSpec&) {
      return Result<std::unique_ptr<Module>>(
          std::make_unique<ChecksumModule>(Algorithm::kParity));
    });
  }
  {
    MechanismProperties p;
    p.function = ProtocolFunction::kErrorDetection;
    p.header_bytes = 2;
    p.per_byte_ns = 0.52;
    p.reliability_level = 1;
    (void)reg.Register(mechanisms::kCrc16, p, [](const MechanismSpec&) {
      return Result<std::unique_ptr<Module>>(
          std::make_unique<ChecksumModule>(Algorithm::kCrc16));
    });
  }
  {
    MechanismProperties p;
    p.function = ProtocolFunction::kErrorDetection;
    p.header_bytes = 4;
    // The hardware-folded kernel's rate (SSE4.2+PCLMUL or ARMv8 CRC). Where
    // the dispatch falls back to slicing-by-8 ("crc32 slicing8 4k", about
    // 0.53 ns/B, the same as crc16) this figure is about 10x optimistic.
    p.per_byte_ns = 0.05;
    p.reliability_level = 1;
    (void)reg.Register(mechanisms::kCrc32, p, [](const MechanismSpec&) {
      return Result<std::unique_ptr<Module>>(
          std::make_unique<ChecksumModule>(Algorithm::kCrc32));
    });
  }
  {
    MechanismProperties p;
    p.function = ProtocolFunction::kEncryption;
    p.per_byte_ns = 0.27;
    p.provides_encryption = true;
    (void)reg.Register(mechanisms::kXorCipher, p, [](const MechanismSpec& s) {
      const auto key = static_cast<std::uint64_t>(s.ParamOr("key", 0));
      return Result<std::unique_ptr<Module>>(
          std::make_unique<XorCipherModule>(key));
    });
  }
  {
    MechanismProperties p;
    p.function = ProtocolFunction::kOrdering;
    p.header_bytes = 4;
    p.provides_ordering = true;
    (void)reg.Register(mechanisms::kSequencer, p, [](const MechanismSpec& s) {
      const auto gap_ms = s.ParamOr("gap_timeout_ms", 50);
      const auto max_buffer =
          static_cast<std::size_t>(s.ParamOr("max_buffer", 64));
      return Result<std::unique_ptr<Module>>(std::make_unique<SequencerModule>(
          milliseconds(gap_ms), max_buffer));
    });
  }
  {
    MechanismProperties p;
    p.function = ProtocolFunction::kRetransmission;
    p.header_bytes = 5;
    p.per_packet_us = 1.0;
    p.reliability_level = 2;
    p.provides_ordering = true;
    p.window_limited = true;
    p.window_packets = 1;  // stop-and-wait
    (void)reg.Register(mechanisms::kIrq, p, [](const MechanismSpec& s) {
      IrqModule::Options o;
      o.rto = microseconds(s.ParamOr("rto_us", 20000));
      o.max_retries = static_cast<int>(s.ParamOr("max_retries", 10));
      return Result<std::unique_ptr<Module>>(std::make_unique<IrqModule>(o));
    });
  }
  {
    MechanismProperties p;
    p.function = ProtocolFunction::kRetransmission;
    p.header_bytes = 5;
    p.per_packet_us = 1.5;
    p.reliability_level = 2;
    p.provides_ordering = true;
    p.window_limited = true;
    p.window_packets = 32;
    (void)reg.Register(mechanisms::kGoBackN, p, [](const MechanismSpec& s) {
      GoBackNModule::Options o;
      o.window = static_cast<std::size_t>(s.ParamOr("window", 32));
      o.rto = microseconds(s.ParamOr("rto_us", 20000));
      o.max_retries = static_cast<int>(s.ParamOr("max_retries", 10));
      return Result<std::unique_ptr<Module>>(
          std::make_unique<GoBackNModule>(o));
    });
  }
  {
    MechanismProperties p;
    p.function = ProtocolFunction::kFragmentation;
    p.header_bytes = 7;
    p.per_packet_us = 1.0;
    (void)reg.Register(mechanisms::kFragment, p, [](const MechanismSpec& s) {
      const auto mtu =
          static_cast<std::size_t>(s.ParamOr("mtu", 8 * 1024));
      return Result<std::unique_ptr<Module>>(
          std::make_unique<FragmentModule>(mtu));
    });
  }
  {
    MechanismProperties p;
    p.function = ProtocolFunction::kFlowControl;
    (void)reg.Register(mechanisms::kRateLimiter, p,
                       [](const MechanismSpec& s) {
      RateLimiterModule::Options o;
      o.rate_bytes_per_sec = static_cast<std::uint64_t>(
          s.ParamOr("rate_bytes_per_sec", 1'000'000));
      o.burst_bytes =
          static_cast<std::uint64_t>(s.ParamOr("burst_bytes", 64 * 1024));
      return Result<std::unique_ptr<Module>>(
          std::make_unique<RateLimiterModule>(o));
    });
  }
}

}  // namespace

MechanismRegistry& MechanismRegistry::Global() {
  static MechanismRegistry* registry = [] {
    auto* r = new MechanismRegistry();
    RegisterBuiltins(*r);
    return r;
  }();
  return *registry;
}

Status MechanismRegistry::Register(const std::string& name,
                                   MechanismProperties properties,
                                   Factory factory) {
  MutexLock lock(mu_);
  const auto [it, inserted] =
      entries_.try_emplace(name, Entry{properties, std::move(factory)});
  (void)it;
  if (!inserted) {
    return AlreadyExistsError("mechanism already registered: " + name);
  }
  return Status::Ok();
}

const MechanismProperties* MechanismRegistry::Properties(
    const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = entries_.find(name);
  return it != entries_.end() ? &it->second.properties : nullptr;
}

Result<std::unique_ptr<Module>> MechanismRegistry::Create(
    const MechanismSpec& spec) const {
  Factory factory;
  {
    MutexLock lock(mu_);
    const auto it = entries_.find(spec.name);
    if (it == entries_.end()) {
      return Status(NotFoundError("unknown mechanism: " + spec.name));
    }
    factory = it->second.factory;
  }
  return factory(spec);
}

Result<std::vector<std::unique_ptr<Module>>> MechanismRegistry::CreateChain(
    const ModuleGraphSpec& spec) const {
  std::vector<std::unique_ptr<Module>> modules;
  modules.reserve(spec.chain.size());
  for (const MechanismSpec& m : spec.chain) {
    COOL_ASSIGN_OR_RETURN(std::unique_ptr<Module> module, Create(m));
    modules.push_back(std::move(module));
  }
  return modules;
}

std::vector<std::string> MechanismRegistry::Names() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

}  // namespace cool::dacapo
