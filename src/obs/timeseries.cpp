#include "obs/timeseries.hpp"

namespace tcn::obs {
namespace {

[[nodiscard]] double clamp01(double v) noexcept {
  return std::clamp(v, 0.0, 1.0);
}

}  // namespace

std::string_view regime_name(Regime r) noexcept {
  switch (r) {
    case Regime::kStable:
      return "stable";
    case Regime::kOscillating:
      return "oscillating";
    case Regime::kSaturated:
      return "saturated";
  }
  return "stable";
}

Regime regime_from_name(std::string_view s) noexcept {
  if (s == "oscillating") return Regime::kOscillating;
  if (s == "saturated") return Regime::kSaturated;
  return Regime::kStable;
}

void StabilityAnalyzer::observe(const SeriesPoint& p) noexcept {
  // Depth central moments, Pebay's single-pass update (numerically stable
  // generalization of Welford to M3/M4).
  const double x = static_cast<double>(p.depth_bytes);
  const double n1 = static_cast<double>(depth_n_);
  ++depth_n_;
  const double n = static_cast<double>(depth_n_);
  const double delta = x - depth_mean_;
  const double delta_n = delta / n;
  const double delta_n2 = delta_n * delta_n;
  const double term1 = delta * delta_n * n1;
  depth_mean_ += delta_n;
  depth_m4_ += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) +
               6.0 * delta_n2 * depth_m2_ - 4.0 * delta_n * depth_m3_;
  depth_m3_ += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * depth_m2_;
  depth_m2_ += term1;

  if (depth_n_ > 1) {
    lag_sum_ += lag_prev_ * x;
    ++lag_n_;
  }
  lag_prev_ = x;

  if (p.deq_packets > 0) {
    const double s = static_cast<double>(p.sojourn_sum_ns) /
                     static_cast<double>(p.deq_packets);
    ++soj_n_;
    const double d = s - soj_mean_;
    soj_mean_ += d / static_cast<double>(soj_n_);
    soj_m2_ += d * (s - soj_mean_);
  }

  const double m = static_cast<double>(p.marks);
  ++mark_n_;
  const double dm = m - mark_mean_;
  mark_mean_ += dm / static_cast<double>(mark_n_);
  mark_m2_ += dm * (m - mark_mean_);

  total_tx_bytes_ += p.tx_bytes;
}

void StabilityAnalyzer::observe_zeros(std::uint64_t n) noexcept {
  // observe() of a zero point on zero state: delta, delta_n, term1 and the
  // mark delta are all +0.0, so every accumulator stays +0.0 and only the
  // counts advance.
  depth_n_ = n;
  lag_n_ = n > 0 ? n - 1 : 0;
  mark_n_ = n;
}

StabilityResult StabilityAnalyzer::result(
    std::uint64_t cap_bytes) const noexcept {
  StabilityResult r;
  r.samples = depth_n_;
  if (depth_n_ == 0) return r;

  const double n = static_cast<double>(depth_n_);
  const double var = depth_m2_ / n;  // population variance
  r.depth_mean_bytes = depth_mean_;
  if (var > 0.0) {
    const double sd = std::sqrt(var);
    r.depth_cv = depth_mean_ > 0.0 ? sd / depth_mean_ : 0.0;
    // Sarle's bimodality coefficient b = (skew^2 + 1) / kurtosis, with the
    // population estimators g1 = sqrt(n) M3 / M2^1.5 and kurt = n M4 / M2^2
    // (kurt >= 1 whenever M2 > 0, so the division is safe). Uniform gives
    // 5/9; a two-point 50/50 oscillation gives 1.
    const double g1 = std::sqrt(n) * depth_m3_ / std::pow(depth_m2_, 1.5);
    const double kurt = n * depth_m4_ / (depth_m2_ * depth_m2_);
    r.bimodality = (g1 * g1 + 1.0) / kurt;
    if (lag_n_ > 0) {
      const double mean_prod = lag_sum_ / static_cast<double>(lag_n_);
      r.lag1_autocorr = std::clamp(
          (mean_prod - depth_mean_ * depth_mean_) / var, -1.0, 1.0);
    }
    if (depth_n_ >= kMinSamples) {
      // Bimodality alone flags any two-level series, including one that
      // barely moves; damping by the depth CV keeps the score proportional
      // to how hard the queue actually swings.
      const double excess =
          clamp01((r.bimodality - kUniformBimodality) /
                  (1.0 - kUniformBimodality));
      r.oscillation_score = excess * clamp01(r.depth_cv);
    }
  }
  if (soj_n_ > 0 && soj_mean_ > 0.0) {
    r.sojourn_cv =
        std::sqrt(soj_m2_ / static_cast<double>(soj_n_)) / soj_mean_;
  }
  if (mark_mean_ > 0.0) {
    r.mark_burstiness = (mark_m2_ / static_cast<double>(mark_n_)) / mark_mean_;
  }

  double occupancy = 0.0;
  if (cap_bytes > 0 && cap_bytes != UINT64_MAX) {
    occupancy = depth_mean_ / static_cast<double>(cap_bytes);
  }
  if (depth_n_ >= kMinSamples && occupancy >= kSaturationOccupancy) {
    r.regime = Regime::kSaturated;
  } else if (r.oscillation_score >= kOscillationThreshold) {
    r.regime = Regime::kOscillating;
  } else {
    r.regime = Regime::kStable;
  }
  return r;
}

std::string TimeSeries::Channel::name() const {
  return probe_->name + ".q" + std::to_string(queue_);
}

StabilityAnalyzer TimeSeries::Channel::analyzer() const noexcept {
  if (samples_) return samples_->analyzer;
  StabilityAnalyzer a;
  a.observe_zeros(idle_ticks());
  return a;
}

std::vector<SeriesPoint> TimeSeries::Channel::points() const {
  std::vector<SeriesPoint> out;
  if (!samples_) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(idle_ticks(), owner_->cfg_.max_samples));
    out.reserve(n);
    owner_->for_last_ticks(n, [&](sim::Time t) {
      SeriesPoint pt;
      pt.t = t;
      out.push_back(pt);
    });
    return out;
  }
  const std::vector<SeriesPoint>& ring = samples_->ring;
  const auto next = static_cast<std::ptrdiff_t>(samples_->next);
  if (!samples_->wrapped) {
    out.assign(ring.begin(), ring.begin() + next);
  } else {
    out.reserve(ring.size());
    out.insert(out.end(), ring.begin() + next, ring.end());
    out.insert(out.end(), ring.begin(), ring.begin() + next);
  }
  return out;
}

void TimeSeries::Channel::sample(sim::Time now) {
  const QueueCells& c = probe_->cells[queue_];
  QueueCells& last = samples_->last;
  SeriesPoint pt;
  pt.t = now;
  pt.depth_bytes = c.enq_bytes - c.tx_bytes;  // admitted, not yet dequeued
  pt.depth_packets = c.enq_packets - c.tx_packets;
  pt.deq_packets = c.tx_packets - last.tx_packets;
  pt.sojourn_sum_ns = c.sojourn_ns - last.sojourn_ns;
  pt.marks = c.marks_enqueue + c.marks_dequeue - last.marks_enqueue -
             last.marks_dequeue;
  pt.tx_bytes = c.tx_bytes - last.tx_bytes;
  last = c;

  samples_->analyzer.observe(pt);
  record(pt);
}

void TimeSeries::Channel::record(const SeriesPoint& pt) {
  const std::size_t max_samples = owner_->cfg_.max_samples;
  if (max_samples == 0) return;
  Samples& s = *samples_;
  if (s.ring.size() < max_samples) {
    s.ring.push_back(pt);
    s.next = s.ring.size() % max_samples;
    s.wrapped = s.next == 0 && s.ring.size() == max_samples;
  } else {
    s.ring[s.next] = pt;
    s.next = (s.next + 1) % max_samples;
    s.wrapped = true;
  }
}

void PortProbe::wake(std::size_t q) {
  if (series != nullptr) series->activate(first_channel + q);
}

void TimeSeries::attach(PortProbe& probe, std::uint64_t cap_bytes) {
  probe.series = this;
  probe.first_channel = channels_.size();
  // Grow geometrically, but by the whole port at once: one allocation per
  // port at most, whatever its queue count.
  const std::size_t need = channels_.size() + probe.cells.size();
  if (need > channels_.capacity()) {
    channels_.reserve(std::max(need, 2 * channels_.capacity()));
  }
  for (std::size_t q = 0; q < probe.cells.size(); ++q) {
    channels_.emplace_back(*this, probe, q, cap_bytes);
  }
}

void TimeSeries::activate(std::size_t channel) {
  Channel& ch = channels_[channel];
  const std::uint64_t idle = ch.idle_ticks();
  ch.samples_ = std::make_unique<Channel::Samples>();
  ch.samples_->analyzer.observe_zeros(idle);
  for_last_ticks(
      static_cast<std::size_t>(std::min<std::uint64_t>(idle, cfg_.max_samples)),
      [&](sim::Time t) {
        SeriesPoint pt;
        pt.t = t;
        ch.record(pt);
      });
  active_.push_back(channel);
}

void TimeSeries::start(sim::Simulator& sim) {
  if (armed_ || !cfg_.enabled()) return;
  armed_ = true;
  sim.schedule_in(cfg_.interval, [this, &sim] { tick(sim); });
}

void TimeSeries::tick(sim::Simulator& sim) {
  ++ticks_;
  const sim::Time now = sim.now();
  if (cfg_.max_samples > 0) {
    if (recent_ticks_.size() < cfg_.max_samples) {
      recent_ticks_.push_back(now);
    } else {
      recent_ticks_[recent_next_] = now;
      if (++recent_next_ == recent_ticks_.size()) recent_next_ = 0;
    }
  }
  for (const std::size_t ch : active_) channels_[ch].sample(now);
  // The tick's own pop already happened: an empty queue here means the run
  // is over bar the sampler, and rescheduling would keep run(kTimeMax)
  // spinning forever. Stop; start() may re-arm.
  if (sim.pending() == 0) {
    armed_ = false;
    return;
  }
  sim.schedule_in(cfg_.interval, [this, &sim] { tick(sim); });
}

std::vector<const TimeSeries::Channel*> TimeSeries::sorted_channels() const {
  std::vector<std::pair<std::string, const Channel*>> named;
  named.reserve(channels_.size());
  for (const Channel& ch : channels_) named.emplace_back(ch.name(), &ch);
  std::sort(named.begin(), named.end());
  std::vector<const Channel*> out;
  out.reserve(named.size());
  for (const auto& [name, ch] : named) out.push_back(ch);
  return out;
}

const TimeSeries::Channel* TimeSeries::dominant_channel() const {
  const Channel* best = nullptr;
  std::uint64_t best_tx = 0;
  std::string best_name;
  for (const Channel& ch : channels_) {
    const std::uint64_t tx =
        ch.samples_ ? ch.samples_->analyzer.total_tx_bytes() : 0;
    if (best != nullptr && tx < best_tx) continue;
    std::string name = ch.name();
    if (best == nullptr || tx > best_tx || name < best_name) {
      best = &ch;
      best_tx = tx;
      best_name = std::move(name);
    }
  }
  return best;
}

}  // namespace tcn::obs
