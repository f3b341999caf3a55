#include "serve/sched/sched.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "serve/fleet_loop.h"

namespace vitbit::serve {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

bool known_mode(const std::string& mode) {
  return mode == "fifo" || mode == "cb" || mode == "cb-pre";
}

}  // namespace

void AutoscaleConfig::validate() const {
  VITBIT_CHECK_MSG(min_replicas >= 1, "min_replicas must be >= 1");
  VITBIT_CHECK_MSG(max_replicas >= min_replicas,
                   "max_replicas " << max_replicas << " below min_replicas "
                                   << min_replicas);
  if (!enabled()) return;
  VITBIT_CHECK_MSG(interval_us >= 1, "autoscale interval must be >= 1 us");
  VITBIT_CHECK_MSG(down_queue_depth <= up_queue_depth,
                   "down_queue_depth " << down_queue_depth
                                       << " above up_queue_depth "
                                       << up_queue_depth
                                       << " (hysteresis inverted)");
  VITBIT_CHECK_MSG(std::isfinite(up_preempt_per_s) && up_preempt_per_s >= 0.0,
                   "up_preempt_per_s must be finite and >= 0");
  VITBIT_CHECK_MSG(std::isfinite(up_slo_miss_rate) && up_slo_miss_rate >= 0.0,
                   "up_slo_miss_rate must be finite and >= 0");
}

void SchedConfig::validate() const {
  VITBIT_CHECK_MSG(known_mode(mode),
                   "unknown scheduler mode: " << mode
                                              << " (want fifo|cb|cb-pre)");
  VITBIT_CHECK_MSG(policy == "greedy" || policy == "timeout",
                   "unknown batching policy: " << policy
                                               << " (want greedy|timeout)");
  VITBIT_CHECK_MSG(batch_timeout_us >= 1, "batch_timeout_us must be >= 1");
  faults.validate();
  // User-level errors (no source location): both are flag combinations.
  if (mode != "fifo" && policy != "greedy")
    throw CheckError("the " + policy +
                     " flush policy applies to fifo mode only, not " + mode);
  if (mode != "fifo" && (faults.any_faults() || faults.degrade_below_live > 0))
    throw CheckError("fault injection applies to fifo mode only, not " +
                     mode);
  VITBIT_CHECK_MSG(num_gpus >= 1, "num_gpus must be >= 1");
  VITBIT_CHECK_MSG(faults.degrade_below_live <= num_gpus,
                   "degrade_below_live " << faults.degrade_below_live
                                         << " exceeds num_gpus " << num_gpus);
  VITBIT_CHECK_MSG(max_batch >= 1, "max_batch must be >= 1");
  VITBIT_CHECK_MSG(queue_capacity >= 1, "queue_capacity must be >= 1");
  VITBIT_CHECK_MSG(iters >= 1, "iters must be >= 1");
  VITBIT_CHECK_MSG(slo_us >= 1, "slo_us must be >= 1");
  VITBIT_CHECK_MSG(!classes.empty(), "scheduler needs >= 1 class");
  for (std::size_t c = 0; c < classes.size(); ++c) {
    VITBIT_CHECK_MSG(
        std::isfinite(classes[c].weight) && classes[c].weight > 0.0,
        "class " << classes[c].name << " weight must be positive finite");
    VITBIT_CHECK_MSG(classes[c].slo_us >= 1,
                     "class " << classes[c].name << " slo_us must be >= 1");
  }
}

SchedSim::SchedSim(const ModelRegistry& registry, const SchedConfig& cfg,
                   PercentileMode percentiles, const AutoscaleConfig& autoscale)
    : registry_(registry),
      cfg_(cfg),
      as_(autoscale),
      fifo_(cfg.mode == "fifo"),
      preemptive_(cfg.mode == "cb-pre"),
      timeout_(cfg.policy == "timeout"),
      replica_faults_(cfg.faults.replica_mtbf_s > 0.0),
      batch_faults_(cfg.faults.batch_failure_prob > 0.0 ||
                    cfg.faults.latency_spike_prob > 0.0),
      replicas_(static_cast<std::size_t>(
          autoscale.enabled() ? autoscale.max_replicas : cfg.num_gpus)),
      faults_(cfg.faults,
              autoscale.enabled() ? autoscale.max_replicas : cfg.num_gpus),
      policy_wake_us_(kNever),
      class_queues_(cfg.classes.size()),
      served_(cfg.classes.size(), 0),
      total_(percentiles, cfg.slo_us),
      per_class_(
          [&cfg] {
            std::vector<std::uint64_t> slos;
            for (const auto& c : cfg.classes) slos.push_back(c.slo_us);
            return slos;
          }(),
          percentiles),
      per_model_(std::vector<std::uint64_t>(
                     static_cast<std::size_t>(registry.num_models()), 0),
                 percentiles) {
  cfg_.validate();
  as_.validate();
  if (as_.enabled())
    VITBIT_CHECK_MSG(cfg_.faults.degrade_below_live <= as_.max_replicas,
                     "degrade_below_live " << cfg_.faults.degrade_below_live
                                           << " exceeds max_replicas "
                                           << as_.max_replicas);
  const bool degrade = cfg_.faults.degrade_below_live > 0;
  for (int m = 0; m < registry_.num_models(); ++m) {
    primary_.push_back(&registry_.table(m, cfg_.strategy));
    fallback_.push_back(
        degrade ? &registry_.table(m, cfg_.fallback_strategy) : nullptr);
    for (const auto* t : {primary_.back(), fallback_.back()})
      VITBIT_CHECK_MSG(t == nullptr || t->max_batch() >= cfg_.max_batch,
                       "model " << registry_.name(m) << " "
                                << core::strategy_name(t->strategy)
                                << " latency table covers batches up to "
                                << t->max_batch() << ", scheduler needs "
                                << cfg_.max_batch);
  }
  enabled_ = as_.enabled() ? std::clamp(cfg_.num_gpus, as_.min_replicas,
                                        as_.max_replicas)
                           : cfg_.num_gpus;
  // The first evaluation lands one interval in; t = 0 has no signal yet.
  next_autoscale_us_ = as_.interval_us;
  tick_preempted_.assign(cfg_.classes.size(), 0);
  tick_completed_.assign(cfg_.classes.size(), 0);
  tick_missed_.assign(cfg_.classes.size(), 0);
}

std::size_t SchedSim::total_depth() const {
  std::size_t n = fifo_queue_.size();
  for (const auto& q : class_queues_) n += q.size();
  return n;
}

void SchedSim::begin_step(std::uint64_t now) {
  if (replica_faults_ || cfg_.faults.degrade_below_live > 0) step_faults(now);
  // Iteration (fifo: whole-batch) completions due at `now`, lowest
  // replica index first: record the executed iteration, then retire
  // residents whose last slice this was — against the total, class, and
  // model sinks — leaving the replica at a boundary for dispatch(). A
  // failed fifo batch sends every resident down the retry path instead.
  for (auto& rep : replicas_) {
    if (!rep.running || rep.iter_done_us > now) continue;
    total_.on_batch(rep.batch.size(), rep.iter_done_us - rep.iter_start_us);
    rep.running = false;
    touch(now);
    if (rep.fail) {
      fail_batch(now, rep.batch);
      rep.batch.clear();
      rep.fail = false;
      continue;
    }
    std::vector<Resident> keep;
    keep.reserve(rep.batch.size());
    for (auto& res : rep.batch) {
      if (--res.remaining > 0) {
        keep.push_back(res);
        continue;
      }
      const auto& r = res.req;
      total_.on_completion(r.arrival_us, now);
      per_class_.at(static_cast<std::size_t>(r.cls))
          .on_completion(r.arrival_us, now);
      per_model_.at(static_cast<std::size_t>(r.model))
          .on_completion(r.arrival_us, now);
      ++tick_completed_[static_cast<std::size_t>(r.cls)];
      if (now - r.arrival_us >
          cfg_.classes[static_cast<std::size_t>(r.cls)].slo_us)
        ++tick_missed_[static_cast<std::size_t>(r.cls)];
    }
    rep.batch = std::move(keep);
  }
}

void SchedSim::step_faults(std::uint64_t now) {
  // Replica fault transitions due at `now` (lowest index first). A
  // replica going down aborts its in-flight batch onto the retry path;
  // the partial busy time still counts against utilization. Disabled
  // replicas keep their schedules ticking but never hold work.
  const int capacity = static_cast<int>(replicas_.size());
  for (int g = 0; g < capacity; ++g) {
    while (faults_.next_transition_us(g) <= now) {
      faults_.advance(g);
      touch(now);
      auto& rep = replicas_[static_cast<std::size_t>(g)];
      if (!faults_.up(g) && rep.running) {
        total_.on_batch(rep.batch.size(), now - rep.iter_start_us);
        fail_batch(now, rep.batch);
        rep.batch.clear();
        rep.running = false;
        rep.fail = false;
      }
    }
  }
  if (cfg_.faults.degrade_below_live > 0) {
    const bool want = live_enabled() < cfg_.faults.degrade_below_live;
    if (want && !degraded_) {
      total_.on_failover();
      degraded_ = true;
      degraded_since_ = now;
    } else if (!want && degraded_) {
      total_.add_degraded_us(now - degraded_since_);
      degraded_ = false;
    }
  }
}

void SchedSim::fail_batch(std::uint64_t t, const std::vector<Resident>& batch) {
  // One batch failure on the total, and on every class and model the
  // batch carried; then each resident either schedules its next attempt
  // after exponential backoff or is shed when the budget or its class
  // SLO deadline is exhausted.
  total_.on_batch_failure();
  std::vector<bool> cls_hit(per_class_.size(), false);
  std::vector<bool> model_hit(per_model_.size(), false);
  for (const auto& res : batch) {
    Request r = res.req;
    const auto c = static_cast<std::size_t>(r.cls);
    const auto m = static_cast<std::size_t>(r.model);
    auto& cls_sink = per_class_.at(c);
    auto& model_sink = per_model_.at(m);
    if (!cls_hit[c]) cls_sink.on_batch_failure();
    if (!model_hit[m]) model_sink.on_batch_failure();
    cls_hit[c] = true;
    model_hit[m] = true;
    const int attempt = r.attempt + 1;
    const std::uint64_t ready =
        attempt > cfg_.faults.max_retries ? kNever
                                          : t + faults_.retry_delay_us(attempt);
    if (ready == kNever || ready > r.arrival_us + cfg_.classes[c].slo_us) {
      total_.on_shed();
      cls_sink.on_shed();
      model_sink.on_shed();
      continue;
    }
    total_.on_retry();
    cls_sink.on_retry();
    model_sink.on_retry();
    r.attempt = attempt;
    retries_.push_back({ready, r});
    std::push_heap(retries_.begin(), retries_.end(), RetryLater{});
  }
}

int SchedSim::live_enabled() const {
  int n = 0;
  for (int g = 0; g < enabled_; ++g)
    if (faults_.up(g)) ++n;
  return n;
}

void SchedSim::admit(std::uint64_t now, const Request& r) {
  touch(now);
  VITBIT_CHECK_MSG(r.cls >= 0 &&
                       r.cls < static_cast<int>(cfg_.classes.size()),
                   "request class " << r.cls << " outside the "
                                    << cfg_.classes.size() << " classes");
  VITBIT_CHECK_MSG(r.model >= 0 && r.model < registry_.num_models(),
                   "request model " << r.model << " outside the "
                                    << registry_.num_models()
                                    << "-model registry");
  total_.on_offered();
  per_class_.at(static_cast<std::size_t>(r.cls)).on_offered();
  per_model_.at(static_cast<std::size_t>(r.model)).on_offered();
  if (total_depth() >= static_cast<std::size_t>(cfg_.queue_capacity)) {
    total_.on_drop();
    per_class_.at(static_cast<std::size_t>(r.cls)).on_drop();
    per_model_.at(static_cast<std::size_t>(r.model)).on_drop();
    return;
  }
  if (fifo_)
    fifo_queue_.push_back(r);
  else
    class_queues_[static_cast<std::size_t>(r.cls)].push_back(r);
  total_.on_queue_depth(now, total_depth());
}

void SchedSim::admit_due_retries(std::uint64_t now) {
  // A full queue sheds retries rather than dropping them — the request
  // was already admitted once and now exits the system for good.
  while (!retries_.empty() && retries_.front().ready_us <= now) {
    std::pop_heap(retries_.begin(), retries_.end(), RetryLater{});
    const Request r = retries_.back().req;
    retries_.pop_back();
    touch(now);
    auto& cls_sink = per_class_.at(static_cast<std::size_t>(r.cls));
    auto& model_sink = per_model_.at(static_cast<std::size_t>(r.model));
    if (total_depth() < static_cast<std::size_t>(cfg_.queue_capacity)) {
      fifo_queue_.push_back(r);
      total_.on_requeue();
      cls_sink.on_requeue();
      model_sink.on_requeue();
      total_.on_queue_depth(now, total_depth());
    } else {
      total_.on_shed();
      cls_sink.on_shed();
      model_sink.on_shed();
    }
  }
}

bool wrr_prefers(double weight_c, std::uint64_t served_c, double weight_b,
                 std::uint64_t served_b) {
  // weight_c * (served_b + 1) > weight_b * (served_c + 1), exactly: each
  // weight splits into a 53-bit integer mantissa and an exponent (frexp
  // yields the mantissa in [0.5, 1), so scaling by 2^53 is lossless for
  // every positive finite double, denormals included), the mantissa-
  // times-count products fit 128 bits with room to spare (< 2^117), and
  // the exponent gap shifts the larger-exponent side back in. A shift
  // that would pass 2^127 decides the comparison outright — the other
  // side is bounded by 2^117.
  int ec = 0;
  int eb = 0;
  auto lhs = static_cast<unsigned __int128>(std::ldexp(
                 std::frexp(weight_c, &ec), 53)) *
             (static_cast<unsigned __int128>(served_b) + 1);
  auto rhs = static_cast<unsigned __int128>(std::ldexp(
                 std::frexp(weight_b, &eb), 53)) *
             (static_cast<unsigned __int128>(served_c) + 1);
  const auto bits = [](unsigned __int128 v) {
    int n = 0;
    while (v != 0) {
      v >>= 1;
      ++n;
    }
    return n;
  };
  if (const int x = ec - eb; x > 0) {
    if (bits(lhs) + x > 127) return true;
    lhs <<= x;
  } else if (x < 0) {
    if (bits(rhs) - x > 127) return false;
    rhs <<= -x;
  }
  return lhs > rhs;
}

int SchedSim::pick_class(int model) const {
  // Smooth weighted round-robin: the eligible class maximizing
  // weight / (served + 1), compared by exact cross-multiplication (see
  // wrr_prefers — plain double products silently starve low-weight
  // classes at extreme weight ratios); ties resolve to the lower class
  // index (the higher priority).
  int best = -1;
  for (int c = 0; c < static_cast<int>(class_queues_.size()); ++c) {
    const auto& q = class_queues_[static_cast<std::size_t>(c)];
    if (q.empty()) continue;
    if (model >= 0 && q.front().model != model) continue;
    if (best < 0) {
      best = c;
      continue;
    }
    if (wrr_prefers(cfg_.classes[static_cast<std::size_t>(c)].weight,
                    served_[static_cast<std::size_t>(c)],
                    cfg_.classes[static_cast<std::size_t>(best)].weight,
                    served_[static_cast<std::size_t>(best)]))
      best = c;
  }
  return best;
}

Request SchedSim::pop_class(int c) {
  auto& q = class_queues_[static_cast<std::size_t>(c)];
  const Request r = q.front();
  q.pop_front();
  return r;
}

void SchedSim::activate_model(Replica& rep, int model) {
  if (rep.model == model) return;
  std::uint64_t cost = 0;
  const auto it = std::find(rep.cache.begin(), rep.cache.end(), model);
  if (rep.model < 0 && rep.cache.empty()) {
    // First load: weights are staged before traffic (free), matching the
    // single-model tiers this scheduler must reproduce bit for bit.
  } else if (it != rep.cache.end()) {
    cost = registry_.warm_swap_us();
    ++model_swaps_;
  } else {
    cost = registry_.cold_swap_us(model);
    ++model_swaps_;
    ++cold_swaps_;
  }
  if (it != rep.cache.end()) rep.cache.erase(it);
  rep.cache.push_back(model);
  while (rep.cache.size() >
         static_cast<std::size_t>(registry_.cache_capacity()))
    rep.cache.erase(rep.cache.begin());
  rep.model = model;
  swap_us_ += cost;
  rep.pending_swap_us += cost;
}

void SchedSim::start_iteration(Replica& rep, std::uint64_t now) {
  const auto m = static_cast<std::size_t>(rep.model);
  const LatencyTable& table = degraded_ ? *fallback_[m] : *primary_[m];
  std::uint64_t busy = table.latency_us(rep.batch.size());
  if (!fifo_) {
    busy = std::max<std::uint64_t>(
        1, busy / static_cast<std::uint64_t>(cfg_.iters));
  } else if (batch_faults_) {
    const auto fate = faults_.draw_batch_fate();
    rep.fail = fate.fail;
    if (fate.spike) busy = faults_.spiked_latency_us(busy);
  }
  busy += rep.pending_swap_us;
  rep.pending_swap_us = 0;
  rep.running = true;
  rep.iter_start_us = now;
  rep.iter_done_us = now + busy;
  touch(now);
}

bool SchedSim::urgent(std::uint64_t now, const Request& r) const {
  // Would miss its class deadline even dispatched alone right now —
  // waiting one more round-robin turn cannot end well.
  return now + primary_[static_cast<std::size_t>(r.model)]->latency_us(1) >
         r.arrival_us + cfg_.classes[static_cast<std::size_t>(r.cls)].slo_us;
}

void SchedSim::admit_urgent(Replica& rep, std::uint64_t now) {
  // Deadline-first pass (cb-pre): urgent queue heads are admitted ahead
  // of the round-robin order, highest priority class first. When the
  // batch is full, the most recently joined resident of a strictly lower
  // class is preempted — its partial work is lost and it restarts from
  // the front of its class queue (bypassing the admission bound: it was
  // already admitted once and must conserve).
  for (int c = 0; c < static_cast<int>(class_queues_.size()); ++c) {
    auto& q = class_queues_[static_cast<std::size_t>(c)];
    while (!q.empty() && urgent(now, q.front())) {
      const Request& head = q.front();
      if (rep.model >= 0 && !rep.batch.empty() && head.model != rep.model)
        break;  // cannot join a busy different-model batch
      if (rep.batch.size() >= static_cast<std::size_t>(cfg_.max_batch)) {
        std::size_t victim = rep.batch.size();
        for (std::size_t i = 0; i < rep.batch.size(); ++i) {
          if (rep.batch[i].req.cls <= c) continue;
          if (victim == rep.batch.size() ||
              rep.batch[i].req.cls > rep.batch[victim].req.cls ||
              (rep.batch[i].req.cls == rep.batch[victim].req.cls &&
               rep.batch[i].join_seq > rep.batch[victim].join_seq))
            victim = i;
        }
        if (victim == rep.batch.size()) break;  // nobody outranked
        const Request evicted = rep.batch[victim].req;
        rep.batch.erase(rep.batch.begin() +
                        static_cast<std::ptrdiff_t>(victim));
        class_queues_[static_cast<std::size_t>(evicted.cls)].push_front(
            evicted);
        ++preemptions_;
        ++tick_preempted_[static_cast<std::size_t>(evicted.cls)];
        total_.on_queue_depth(now, total_depth());
      }
      const Request r = pop_class(c);
      if (rep.batch.empty()) activate_model(rep, r.model);
      rep.batch.push_back({r, cfg_.iters, join_seq_++});
      ++served_[static_cast<std::size_t>(r.cls)];
      total_.on_queue_depth(now, total_depth());
    }
  }
}

void SchedSim::fill_wrr(Replica& rep, std::uint64_t now) {
  while (rep.batch.size() < static_cast<std::size_t>(cfg_.max_batch)) {
    const int constraint = rep.batch.empty() ? -1 : rep.model;
    const int c = pick_class(constraint);
    if (c < 0) return;
    const Request r = pop_class(c);
    if (rep.batch.empty()) activate_model(rep, r.model);
    rep.batch.push_back({r, cfg_.iters, join_seq_++});
    ++served_[static_cast<std::size_t>(r.cls)];
    total_.on_queue_depth(now, total_depth());
  }
}

bool SchedSim::policy_dispatches(std::uint64_t now) {
  // timeout: flush a full batch, or a partial one once the oldest queued
  // request has waited batch_timeout_us; otherwise wake at that deadline.
  if (fifo_queue_.size() >= static_cast<std::size_t>(cfg_.max_batch))
    return true;
  const std::uint64_t deadline =
      fifo_queue_.front().arrival_us + cfg_.batch_timeout_us;
  if (now >= deadline) return true;
  policy_wake_us_ = deadline;
  return false;
}

void SchedSim::dispatch_fifo(std::uint64_t now) {
  // Whole same-model prefix batches onto idle live replicas, lowest
  // replica index first, while the flush policy agrees.
  policy_wake_us_ = kNever;
  while (!fifo_queue_.empty()) {
    Replica* idle = nullptr;
    for (int g = 0; g < enabled_; ++g) {
      auto& rep = replicas_[static_cast<std::size_t>(g)];
      if (rep.batch.empty() && !rep.running &&
          (!replica_faults_ || faults_.up(g))) {
        idle = &rep;
        break;
      }
    }
    if (idle == nullptr) break;
    if (timeout_ && !policy_dispatches(now)) break;
    const int model = fifo_queue_.front().model;
    std::vector<Resident> batch;
    while (!fifo_queue_.empty() && fifo_queue_.front().model == model &&
           batch.size() < static_cast<std::size_t>(cfg_.max_batch)) {
      batch.push_back({fifo_queue_.front(), 1, join_seq_++});
      fifo_queue_.pop_front();
    }
    total_.on_queue_depth(now, total_depth());
    activate_model(*idle, model);
    idle->batch = std::move(batch);
    start_iteration(*idle, now);
  }
}

void SchedSim::dispatch_cb(std::uint64_t now) {
  // Every replica standing at an iteration boundary (or idle) refills:
  // finished residents already left in begin_step, queued same-model
  // requests join, and the next iteration is scheduled from the current
  // batch size. An emptied replica may switch models (swap charged to
  // the first iteration of the new batch).
  for (int g = 0; g < enabled_; ++g) {
    auto& rep = replicas_[static_cast<std::size_t>(g)];
    if (rep.running) continue;  // mid-iteration
    if (preemptive_) admit_urgent(rep, now);
    fill_wrr(rep, now);
    if (rep.batch.empty()) continue;  // nothing eligible; replica idles
    start_iteration(rep, now);
  }
}

void SchedSim::dispatch(std::uint64_t now) {
  if (fifo_)
    dispatch_fifo(now);
  else
    dispatch_cb(now);
}

void SchedSim::accrue_replica_time(std::uint64_t now) {
  replica_time_integral_us_ += static_cast<std::uint64_t>(enabled_) *
                               (now - last_enabled_change_us_);
  last_enabled_change_us_ = now;
}

std::uint64_t SchedSim::cooldown_expiry_us(std::uint64_t t) const {
  // Saturating t + cooldown: a near-uint64-max cooldown (for instance a
  // negative CLI value wrapped through the unsigned cast) means "never
  // scale again", not an overflow past zero that re-arms at the very next
  // tick.
  return t > kNever - as_.cooldown_us ? kNever : t + as_.cooldown_us;
}

void SchedSim::maybe_autoscale(std::uint64_t now) {
  if (!as_.enabled()) return;
  while (next_autoscale_us_ <= now) {
    const std::uint64_t t = next_autoscale_us_;
    next_autoscale_us_ += as_.interval_us;
    // Per-class signal rates over the closing interval. The counters
    // reset at every tick — cooldown or not — so each decision sees one
    // interval's worth of signal, never a backlog.
    bool class_hot = false;
    for (std::size_t c = 0; c < cfg_.classes.size(); ++c) {
      if (as_.up_preempt_per_s > 0.0 &&
          static_cast<double>(tick_preempted_[c]) * 1e6 /
                  static_cast<double>(as_.interval_us) >
              as_.up_preempt_per_s)
        class_hot = true;
      if (as_.up_slo_miss_rate > 0.0 && tick_completed_[c] > 0 &&
          static_cast<double>(tick_missed_[c]) /
                  static_cast<double>(tick_completed_[c]) >
              as_.up_slo_miss_rate)
        class_hot = true;
      tick_preempted_[c] = 0;
      tick_completed_[c] = 0;
      tick_missed_[c] = 0;
    }
    if (t < cooldown_until_us_) continue;
    const std::size_t depth = total_depth();
    const bool hot = class_hot || depth > as_.up_queue_depth ||
                     (as_.up_p99_us > 0 &&
                      total_.running_p99_us() > as_.up_p99_us);
    if (hot && enabled_ < as_.max_replicas) {
      accrue_replica_time(t);
      ++enabled_;
      ++scale_ups_;
      cooldown_until_us_ = cooldown_expiry_us(t);
      touch(t);
      continue;
    }
    // Only a replica that is neither running nor holding residents is
    // retired — never abort or strand partial work.
    const auto& top = replicas_[static_cast<std::size_t>(enabled_ - 1)];
    if (!hot && depth <= as_.down_queue_depth &&
        enabled_ > as_.min_replicas && !top.running && top.batch.empty()) {
      accrue_replica_time(t);
      --enabled_;
      ++scale_downs_;
      cooldown_until_us_ = cooldown_expiry_us(t);
      touch(t);
    }
  }
}

std::uint64_t SchedSim::next_timer_us() const {
  std::uint64_t t = as_.enabled() ? next_autoscale_us_ : kNever;
  if (replica_faults_)
    for (int g = 0; g < faults_.num_replicas(); ++g)
      t = std::min(t, faults_.next_transition_us(g));
  return t;
}

std::size_t SchedSim::load() const {
  std::size_t n = total_depth();
  for (const auto& rep : replicas_) n += rep.batch.size();
  return n;
}

bool SchedSim::warm_for(int model) const {
  for (int g = 0; g < enabled_; ++g) {
    const auto& rep = replicas_[static_cast<std::size_t>(g)];
    if (rep.model == model) return true;
    if (std::find(rep.cache.begin(), rep.cache.end(), model) !=
        rep.cache.end())
      return true;
  }
  return false;
}

void SchedSim::prestage(int model) {
  VITBIT_CHECK_MSG(model >= 0 && model < registry_.num_models(),
                   "prestage model " << model << " outside the "
                                     << registry_.num_models()
                                     << "-model registry");
  // Every replica — including ones beyond the enabled window — so a
  // later scale-up comes online warm for the placed model.
  for (auto& rep : replicas_) {
    rep.model = model;
    rep.cache.assign(1, model);
  }
}

const MetricsSink& SchedSim::class_sink(std::size_t c) const {
  return per_class_.at(c);
}

const MetricsSink& SchedSim::model_sink(std::size_t m) const {
  return per_model_.at(m);
}

std::uint64_t SchedSim::next_internal_event_us() const {
  std::uint64_t t = policy_wake_us_;
  if (!retries_.empty()) t = std::min(t, retries_.front().ready_us);
  for (const auto& rep : replicas_)
    if (rep.running) t = std::min(t, rep.iter_done_us);
  return t;
}

bool SchedSim::idle() const {
  if (total_depth() != 0 || !retries_.empty()) return false;
  for (const auto& rep : replicas_)
    if (!rep.batch.empty()) return false;
  return true;
}

SchedMetrics SchedSim::finalize(std::uint64_t end_us) {
  if (degraded_) {
    total_.add_degraded_us(end_us - degraded_since_);
    degraded_ = false;
  }
  if (as_.enabled()) {
    // Exact available-replica-time under autoscaling; without it the
    // sink falls back to num_gpus * end_us (the fixed-pool case).
    accrue_replica_time(end_us);
    total_.add_replica_time_us(replica_time_integral_us_);
  }
  SchedMetrics m;
  m.total = total_.finalize(cfg_.num_gpus, end_us);
  m.per_class = per_class_.finalize(cfg_.num_gpus, end_us);
  m.per_model = per_model_.finalize(cfg_.num_gpus, end_us);
  // Failover and degraded time are shard-wide: every scope saw them.
  for (auto* group : {&m.per_class, &m.per_model})
    for (auto& g : *group) {
      g.failovers = m.total.failovers;
      g.degraded_s = m.total.degraded_s;
    }
  m.preemptions = preemptions_;
  m.model_swaps = model_swaps_;
  m.cold_swaps = cold_swaps_;
  m.swap_us = swap_us_;
  return m;
}

namespace {

// The one driving loop behind both simulate_sched overloads; `Source`
// exposes has_next / peek_arrival_us / next (WorkloadStream shape): the
// shared fleet loop degenerated to one shard and a constant route. The
// fault seed is used as given (simulate_fleet_sched derives one per
// shard).
template <typename Source>
SchedMetrics drive_sched(Source& source, const ModelRegistry& registry,
                         const SchedConfig& cfg, PercentileMode percentiles) {
  SchedSim sim(registry, cfg, percentiles);
  const std::vector<SchedSim*> shards = {&sim};
  const std::uint64_t end = drive_fleet_loop(
      source, shards,
      [](const Request&, const std::vector<std::size_t>&) { return 0; });
  auto m = sim.finalize(end);
  check_conservation(m.total, "total");
  for (std::size_t c = 0; c < m.per_class.size(); ++c)
    check_conservation(m.per_class[c], "class " + std::to_string(c));
  for (std::size_t k = 0; k < m.per_model.size(); ++k)
    check_conservation(m.per_model[k], "model " + std::to_string(k));
  return m;
}

// Vector-of-requests adapter with the WorkloadStream surface.
struct VectorSource {
  const std::vector<Request>& workload;
  std::size_t next_idx = 0;

  bool has_next() const { return next_idx < workload.size(); }
  std::uint64_t peek_arrival_us() const {
    return workload[next_idx].arrival_us;
  }
  Request next() { return workload[next_idx++]; }
};

}  // namespace

SchedMetrics simulate_sched(const std::vector<Request>& workload,
                            const ModelRegistry& registry,
                            const SchedConfig& cfg,
                            PercentileMode percentiles) {
  VectorSource source{workload};
  return drive_sched(source, registry, cfg, percentiles);
}

SchedMetrics simulate_sched(const MixedWorkloadConfig& workload,
                            const ModelRegistry& registry,
                            const SchedConfig& cfg,
                            PercentileMode percentiles) {
  MixedWorkloadStream stream(workload);
  return drive_sched(stream, registry, cfg, percentiles);
}

}  // namespace vitbit::serve
