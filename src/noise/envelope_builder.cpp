#include "noise/envelope_builder.hpp"

#include "util/assert.hpp"

namespace tka::noise {
namespace {

obs::Counter& invalidated_counter() {
  static obs::Counter& c =
      obs::registry().counter("noise.envelope_cache_invalidated");
  return c;
}

}  // namespace

wave::PulseShape EnvelopeBuilder::pulse_shape(net::NetId victim,
                                              layout::CapId cap) const {
  const net::NetId aggressor = par_->coupling(cap).other(victim);
  const sta::TimingWindow& aw = (*windows_)[aggressor];
  return calc_->pulse(victim, cap, aw.trans_late);
}

wave::Pwl EnvelopeBuilder::build(net::NetId victim, layout::CapId cap,
                                 double lat_extension) const {
  const wave::PulseShape shape = pulse_shape(victim, cap);
  if (shape.peak <= 0.0) return wave::Pwl();
  const net::NetId aggressor = par_->coupling(cap).other(victim);
  const sta::TimingWindow& aw = (*windows_)[aggressor];
  // Pulse start = start of the aggressor transition.
  const double start_eat = aw.eat - 0.5 * aw.trans_early;
  const double start_lat = aw.lat + lat_extension - 0.5 * aw.trans_late;
  return wave::make_trapezoidal_envelope(shape, start_eat,
                                         std::max(start_lat, start_eat));
}

std::size_t EnvelopeBuilder::side_index(net::NetId victim,
                                        layout::CapId cap) const {
  const layout::CouplingCap& cc = par_->coupling(cap);
  TKA_ASSERT(victim == cc.net_a || victim == cc.net_b);
  return 2 * static_cast<std::size_t>(cap) + (victim == cc.net_b ? 1 : 0);
}

const wave::Pwl& EnvelopeBuilder::envelope(net::NetId victim, layout::CapId cap) {
  std::call_once(table_once_, [this] {
    table_size_ = 2 * par_->num_couplings();
    table_ = std::make_unique<Slot[]>(table_size_);
    cache_bytes_.add(static_cast<std::int64_t>(table_size_ * sizeof(Slot)));
  });
  const std::size_t side = side_index(victim, cap);
  TKA_ASSERT(side < table_size_);
  Slot& slot = table_[side];
  std::uint32_t state = slot.state.load(std::memory_order_acquire);
  for (;;) {
    if (state == kReady) {
      cache_hits_.add();
      return slot.env;
    }
    if (state == kEmpty &&
        slot.state.compare_exchange_strong(state, kBuilding,
                                           std::memory_order_acquire)) {
      break;  // claimed: this caller builds
    }
    if (state == kBuilding) {
      slot.state.wait(kBuilding, std::memory_order_acquire);
      state = slot.state.load(std::memory_order_acquire);
    }
  }
  try {
    slot.env = build(victim, cap, 0.0);
  } catch (...) {
    // Hand the side back so waiters retry instead of hanging.
    slot.state.store(kEmpty, std::memory_order_release);
    slot.state.notify_all();
    throw;
  }
  // Entries live for the session: drop the growth slack so resident bytes
  // track the points actually held.
  slot.env.compact();
  cache_bytes_.add(static_cast<std::int64_t>(slot.env.heap_bytes()));
  cache_misses_.add();
  slot.state.store(kReady, std::memory_order_release);
  slot.state.notify_all();
  return slot.env;
}

std::size_t EnvelopeBuilder::drop_sides(layout::CapId cap) {
  if (table_ == nullptr) return 0;
  std::size_t dropped = 0;
  for (std::size_t side : {2 * std::size_t{cap}, 2 * std::size_t{cap} + 1}) {
    Slot& slot = table_[side];
    if (slot.state.load(std::memory_order_relaxed) != kReady) continue;
    cache_bytes_.add(-static_cast<std::int64_t>(slot.env.heap_bytes()));
    slot.env = wave::Pwl();
    slot.state.store(kEmpty, std::memory_order_relaxed);
    ++dropped;
  }
  return dropped;
}

void EnvelopeBuilder::invalidate_net(net::NetId net) {
  std::size_t dropped = 0;
  for (layout::CapId cap : par_->couplings_of(net)) dropped += drop_sides(cap);
  invalidated_counter().add(dropped);
}

void EnvelopeBuilder::invalidate_cap(layout::CapId cap) {
  invalidated_counter().add(drop_sides(cap));
}

wave::Pwl EnvelopeBuilder::envelope_widened(net::NetId victim, layout::CapId cap,
                                            double lat_extension) const {
  return build(victim, cap, lat_extension);
}

wave::Pwl EnvelopeBuilder::plateau_envelope(net::NetId victim, layout::CapId cap,
                                            double t_lo, double t_hi) const {
  TKA_ASSERT(t_hi >= t_lo);
  const wave::PulseShape shape = pulse_shape(victim, cap);
  if (shape.peak <= 0.0) return wave::Pwl();
  // Rise into the plateau before t_lo, hold, decay after t_hi.
  return wave::Pwl({{t_lo - shape.rise, 0.0},
                    {t_lo, shape.peak},
                    {t_hi, shape.peak},
                    {t_hi + shape.tau, 0.0}});
}

}  // namespace tka::noise
