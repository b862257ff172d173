#include "obs/metrics/watchdog.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace qa::obs::metrics {

namespace {

/// Periods of history each detector keeps before it can fire.
constexpr size_t kWindow = 6;
/// Oscillation: alarm when >= this fraction of consecutive per-period
/// mean-ln(price) deltas flip sign...
constexpr double kOscFlipThreshold = 0.6;
/// ...and the mean |delta| is at least this (filters micro-jitter around
/// a settled price).
constexpr double kOscMinAmplitude = 0.02;
/// Starvation: alarm when a rejected query's sojourn exceeds this many
/// global periods.
constexpr double kStarvationSlaPeriods = 4.0;
/// Non-convergence: log-price variances below this floor never alarm.
constexpr double kNonconvFloor = 1e-3;
/// Price-detector population cap. Above this many agents the detectors
/// read a deterministic stride sample (agents 0, s, 2s, ... with
/// s = ceil(n / cap)) instead of every agent: the per-period eval is
/// O(agents x classes) with a log() per entry, which at 10k nodes would
/// dwarf the simulation work it watches. The stride is a pure function of
/// the population size, so sampled gauge and alarm streams stay
/// byte-identical across shard/thread layouts.
constexpr size_t kMaxSampledAgents = 32;
/// Overload: alarm when at least this many queries were shed in one
/// global period (or a brownout is in force).
constexpr int64_t kOverloadMinShed = 1;

std::string FmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

}  // namespace

WatchdogSuite::WatchdogSuite(util::VTime period_us) : period_us_(period_us) {}

void WatchdogSuite::ObserveRejectSojourn(int class_id, util::VTime sojourn_us) {
  for (auto& [cls, worst] : worst_sojourn_us_) {
    if (cls == class_id) {
      worst = std::max(worst, sojourn_us);
      return;
    }
  }
  worst_sojourn_us_.emplace_back(class_id, sojourn_us);
}

const char* WatchdogSuite::WatchdogName(Watchdog watchdog) {
  switch (watchdog) {
    case kStarvation:
      return "starvation";
    case kOscillation:
      return "oscillation";
    case kNonconvergence:
      return "nonconvergence";
    case kOverload:
      return "overload";
    case kWatchdogCount:
      break;
  }
  return "?";
}

bool WatchdogSuite::TryLatch(Watchdog watchdog, int class_id) {
  bool& latched = latched_[class_id][watchdog];
  if (latched) return false;
  latched = true;
  return true;
}

void WatchdogSuite::ClearLatch(Watchdog watchdog, int class_id) {
  auto it = latched_.find(class_id);
  if (it != latched_.end()) it->second[watchdog] = false;
}

std::vector<AlarmRecord> WatchdogSuite::EvaluatePeriod(
    int64_t period, util::VTime now, const MarketProbe& probe) {
  std::vector<AlarmRecord> alarms;

  // --- Starvation: worst reject sojourn this period vs the SLA. ---
  const double sla_us = kStarvationSlaPeriods * static_cast<double>(period_us_);
  double worst_ms = 0.0;
  std::sort(worst_sojourn_us_.begin(), worst_sojourn_us_.end());
  for (const auto& [class_id, sojourn] : worst_sojourn_us_) {
    worst_ms = std::max(worst_ms, util::ToMillis(sojourn));
    if (static_cast<double>(sojourn) > sla_us) {
      if (TryLatch(kStarvation, class_id)) {
        AlarmRecord alarm;
        alarm.t_us = now;
        alarm.period = period;
        alarm.watchdog = WatchdogName(kStarvation);
        alarm.class_id = class_id;
        alarm.value = util::ToMillis(sojourn);
        alarm.threshold = sla_us / static_cast<double>(util::kMillisecond);
        alarm.detail = "class " + std::to_string(class_id) +
                       " query waited " + FmtDouble(alarm.value) +
                       "ms, SLA " + FmtDouble(alarm.threshold) + "ms";
        alarms.push_back(std::move(alarm));
      }
    } else {
      ClearLatch(kStarvation, class_id);
    }
  }
  max_reject_age_ms_ = worst_ms;
  worst_sojourn_us_.clear();

  // --- Overload: queries were shed this period, or a brownout is in
  // force. Evaluated before the probe check below — overload is not a
  // price-only phenomenon, so it must fire for probe-less mechanisms
  // (Random, RoundRobin) too. Market-wide (class -1). ---
  const int64_t shed_delta = shed_total_ - prev_shed_total_;
  prev_shed_total_ = shed_total_;
  if (shed_delta >= kOverloadMinShed || brownout_level_ > 0) {
    if (TryLatch(kOverload, -1)) {
      AlarmRecord alarm;
      alarm.t_us = now;
      alarm.period = period;
      alarm.watchdog = WatchdogName(kOverload);
      alarm.class_id = -1;
      alarm.value = static_cast<double>(shed_delta);
      alarm.threshold = static_cast<double>(kOverloadMinShed);
      alarm.detail = "shed " + std::to_string(shed_delta) +
                     " queries this period, brownout level " +
                     std::to_string(brownout_level_);
      alarms.push_back(std::move(alarm));
    }
  } else {
    ClearLatch(kOverload, -1);
  }

  // --- Price-based detectors need per-agent market state. ---
  log_price_variance_ = 0.0;
  osc_flip_rate_ = 0.0;
  earnings_cv_ = 0.0;
  if (!probe.has_agents()) return alarms;

  const size_t classes = static_cast<size_t>(probe.num_classes);
  // Deterministic stride sample of the agent population (see
  // kMaxSampledAgents).
  const size_t stride =
      probe.num_agents() > kMaxSampledAgents
          ? (probe.num_agents() + kMaxSampledAgents - 1) / kMaxSampledAgents
          : 1;
  for (size_t c = 0; c < classes; ++c) {
    // Cross-node mean and variance of ln(price) for this class.
    double sum = 0.0, sum_sq = 0.0;
    int n = 0;
    for (size_t a = 0; a < probe.num_agents(); a += stride) {
      const double p = probe.price(a, static_cast<int>(c));
      if (p <= 0.0) continue;
      const double lp = std::log(p);
      sum += lp;
      sum_sq += lp * lp;
      ++n;
    }
    if (n == 0) continue;
    const double mean = sum / n;
    const double var = std::max(0.0, sum_sq / n - mean * mean);
    log_price_variance_ = std::max(log_price_variance_, var);

    ClassHistory& hist = history_[static_cast<int>(c)];
    hist.mean_ln_price.push_back(mean);
    if (hist.mean_ln_price.size() > kWindow + 1) {
      hist.mean_ln_price.pop_front();
    }
    hist.ln_price_var.push_back(var);
    if (hist.ln_price_var.size() > kWindow) {
      hist.ln_price_var.pop_front();
    }

    // --- Oscillation: sign-flip rate of consecutive mean-ln(price)
    // deltas. Requires a full window; a high flip rate alone is not
    // enough — tiny jitter around equilibrium also alternates sign, so
    // an amplitude floor gates the alarm. ---
    if (hist.mean_ln_price.size() == kWindow + 1) {
      // Consecutive-delta sign flips and mean amplitude, read straight off
      // the history deque (no materialized delta buffer — this runs every
      // period).
      const size_t num_deltas = hist.mean_ln_price.size() - 1;
      int flips = 0;
      double amp = 0.0;
      double prev_delta = 0.0;
      for (size_t i = 1; i < hist.mean_ln_price.size(); ++i) {
        const double delta =
            hist.mean_ln_price[i] - hist.mean_ln_price[i - 1];
        amp += std::fabs(delta);
        if (i > 1 && delta * prev_delta < 0.0) ++flips;
        prev_delta = delta;
      }
      const double flip_rate =
          num_deltas > 1
              ? static_cast<double>(flips) / static_cast<double>(num_deltas - 1)
              : 0.0;
      amp /= static_cast<double>(num_deltas);
      osc_flip_rate_ = std::max(osc_flip_rate_, flip_rate);
      if (flip_rate >= kOscFlipThreshold && amp >= kOscMinAmplitude) {
        if (TryLatch(kOscillation, static_cast<int>(c))) {
          AlarmRecord alarm;
          alarm.t_us = now;
          alarm.period = period;
          alarm.watchdog = WatchdogName(kOscillation);
          alarm.class_id = static_cast<int>(c);
          alarm.value = flip_rate;
          alarm.threshold = kOscFlipThreshold;
          alarm.detail = "class " + std::to_string(c) +
                         " mean-ln(price) flip rate " + FmtDouble(flip_rate) +
                         " amplitude " + FmtDouble(amp);
          alarms.push_back(std::move(alarm));
        }
      } else {
        ClearLatch(kOscillation, static_cast<int>(c));
      }
    }

    // --- Non-convergence: over a full window, log-price variance stayed
    // above the floor and did not decrease. ---
    if (hist.ln_price_var.size() == kWindow) {
      const bool all_above = std::all_of(
          hist.ln_price_var.begin(), hist.ln_price_var.end(),
          [](double v) { return v > kNonconvFloor; });
      if (all_above && hist.ln_price_var.back() >= hist.ln_price_var.front()) {
        if (TryLatch(kNonconvergence, static_cast<int>(c))) {
          AlarmRecord alarm;
          alarm.t_us = now;
          alarm.period = period;
          alarm.watchdog = WatchdogName(kNonconvergence);
          alarm.class_id = static_cast<int>(c);
          alarm.value = hist.ln_price_var.back();
          alarm.threshold = kNonconvFloor;
          alarm.detail = "class " + std::to_string(c) +
                         " ln(price) variance " +
                         FmtDouble(hist.ln_price_var.back()) +
                         " not converging over " +
                         std::to_string(kWindow) + " periods";
          alarms.push_back(std::move(alarm));
        }
      } else {
        ClearLatch(kNonconvergence, static_cast<int>(c));
      }
    }
  }

  // --- Fairness: coefficient of variation of per-node earnings. A gauge
  // (no alarm) — skew is a signal to read alongside the price detectors,
  // not a failure by itself. ---
  double esum = 0.0, esum_sq = 0.0;
  int en = 0;
  for (double earnings : probe.earnings) {
    esum += earnings;
    esum_sq += earnings * earnings;
    ++en;
  }
  if (en > 0) {
    const double emean = esum / en;
    const double evar = std::max(0.0, esum_sq / en - emean * emean);
    if (emean > 0.0) earnings_cv_ = std::sqrt(evar) / emean;
  }

  return alarms;
}

}  // namespace qa::obs::metrics
