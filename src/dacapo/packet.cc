#include "dacapo/packet.h"

namespace cool::dacapo {

Packet::~Packet() {
  if (budget_ != nullptr) {
    budget_->in_flight_.fetch_sub(buf_.size(), std::memory_order_relaxed);
  }
}

Result<PacketPtr> PacketBudget::Allocate(std::size_t payload) {
  const std::size_t capacity = payload + Packet::kTailroom;
  const std::size_t bytes = Packet::kHeadroom + capacity;
  std::size_t used = in_flight_.load(std::memory_order_relaxed);
  do {
    if (bytes > limit_ - used) {
      return Status(ResourceExhaustedError("packet budget exhausted"));
    }
  } while (!in_flight_.compare_exchange_weak(used, used + bytes,
                                             std::memory_order_relaxed));
  auto p = std::make_unique<Packet>(capacity);
  p->budget_ = shared_from_this();
  p->set_created_at(Now());
  return p;
}

Result<PacketPtr> PacketBudget::Make(std::span<const std::uint8_t> payload) {
  COOL_ASSIGN_OR_RETURN(PacketPtr p, Allocate(payload.size()));
  COOL_RETURN_IF_ERROR(p->SetPayload(payload));
  return p;
}

Result<PacketPtr> PacketBudget::Clone(const Packet& src) {
  COOL_ASSIGN_OR_RETURN(PacketPtr p, Allocate(src.size()));
  COOL_RETURN_IF_ERROR(p->SetPayload(src.Data()));
  p->set_created_at(src.created_at());
  return p;
}

}  // namespace cool::dacapo
