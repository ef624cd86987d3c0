// The offload service's scheduler: a bounded JobQueue in front of a set
// of OCP workers, drained by a CPU-driven dispatch loop.
//
// Split of responsibilities (DESIGN.md §9): the Dispatcher is a
// sim::Component only as a *doorbell* — its tick raises arrival_due_
// exactly at the cycle the next open-loop job arrives (armed with
// wake_at, so the quiescence-gated kernel can sleep through the gaps).
// All actual service work — ingesting arrivals, acknowledging
// completions, installing/launching batch programs — happens on the host
// call stack in service_once(), because driver accesses are blocking Gpp
// calls that re-enter the kernel and therefore must never run inside a
// component tick.
//
// The run loop the service executes is:
//   while (!finished())  { service_once();  kernel.run_until(service_due); }
// where service_due() is a pure function of component state (the arrival
// doorbell and the IRQ controller's aggregated CPU line), as
// Kernel::run_until requires.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cpu/gpp.hpp"
#include "cpu/irq_controller.hpp"
#include "drv/chain.hpp"
#include "fault/report.hpp"
#include "obs/tracer.hpp"
#include "sim/kernel.hpp"
#include "svc/job.hpp"

namespace ouessant::svc {

/// Per-worker accounting the service report aggregates.
struct WorkerStats {
  u64 jobs = 0;          ///< jobs completed by this worker
  u64 launches = 0;      ///< start bits issued (batches)
  u64 installs = 0;      ///< timed program (re)installs
  u64 busy_cycles = 0;   ///< cycles between start and acknowledged done
  u64 faults = 0;        ///< faulted batches charged to this worker
};

/// Fault-handling policy for the dispatch loop (docs/robustness.md).
/// Default-constructed it is unarmed: armed() is false and the
/// dispatcher's behaviour — every timed bus access included — is
/// bit-identical to the pre-fault service loop.
struct RetryPolicy {
  u32 max_attempts = 1;      ///< total tries per job (1 = no retry)
  u64 backoff_base = 2048;   ///< cycles before the first retry
  u32 backoff_mult = 2;      ///< exponential factor per further attempt
  u32 quarantine_after = 0;  ///< consecutive faulted batches before a
                             ///< worker is quarantined (0 = never)
  u64 watchdog_cycles = 0;   ///< busy deadline before the CPU polls a
                             ///< silent worker (0 = off; hangs and
                             ///< suppressed IRQs need this to be caught)

  [[nodiscard]] bool armed() const {
    return max_attempts > 1 || quarantine_after > 0 || watchdog_cycles > 0;
  }

  /// Backoff before retry number @p attempt (1-based: the first retry
  /// waits backoff(1) == backoff_base cycles, the next one mult times
  /// that, and so on).
  [[nodiscard]] u64 backoff(u32 attempt) const {
    u64 d = backoff_base;
    for (u32 i = 1; i < attempt; ++i) d *= backoff_mult;
    return d;
  }
};

class SlotManager;

class Dispatcher : public sim::Component {
 public:
  /// @p irq_ctl_base: where @p irq_ctl is mapped on the bus (the
  /// dispatcher reads PENDING through timed MMIO like a real ISR would).
  Dispatcher(sim::Kernel& kernel, std::string name, cpu::Gpp& gpp,
             mem::Sram& mem, cpu::IrqController& irq_ctl, Addr irq_ctl_base,
             std::size_t queue_depth);

  /// Register @p session as a worker for @p kind jobs. Batches of up to
  /// @p max_batch same-kind jobs are staged at the first stage's input
  /// window, launched as one v2-loop program per stage, and retired on
  /// the last stage's completion. A plain OCP is a one-stage session; a
  /// chain (head -> ChainLink -> tail, or the store-and-forward
  /// ablation) is a two-stage one. Returns the worker index. Every
  /// stage's IRQ line is attached to the controller here, the last
  /// stage's first; configure_irqs() later unmasks the ones that fire.
  u32 add_worker(std::unique_ptr<drv::ChainSession> session, JobKind kind,
                 u32 max_batch);

  /// Hand the open-loop arrival schedule over (must be sorted by
  /// arrival; ConfigError otherwise). The doorbell arms itself.
  void load_schedule(std::vector<Job> arrivals);

  /// Host-stack submission at now() (closed-loop clients). Charges the
  /// CPU enqueue cost; false when the queue rejected the job.
  bool submit_now(Job job);

  /// True when some worker has @p kind now, or the slot farm can swap
  /// it in. Unservable jobs are refused at the door (counted with the
  /// queue's rejects) instead of stranding in the queue forever.
  [[nodiscard]] bool servable(JobKind kind) const;

  /// Called once per completed job, after its timestamps and worker
  /// index are final — the closed-loop generator's resubmission hook and
  /// the service's latency recorder.
  void set_completion_hook(std::function<void(const Job&)> fn) {
    completion_hook_ = std::move(fn);
  }

  /// Called once per job given up on (retry budget exhausted or its
  /// kind became unservable) — the SLO layer counts these as bad
  /// events; the completion hook never sees them.
  void set_failure_hook(std::function<void(const Job&)> fn) {
    failure_hook_ = std::move(fn);
  }

  /// Arm the fault-handling policy (retry/backoff, watchdog,
  /// quarantine). Call before the run loop; an unarmed policy (the
  /// default) leaves every timed access sequence untouched.
  void set_retry_policy(const RetryPolicy& policy) { policy_ = policy; }
  [[nodiscard]] const RetryPolicy& retry_policy() const { return policy_; }

  /// Timed IRQ setup: unmask every attached source at the controller and
  /// enable the per-OCP interrupt in each driver. First timed accesses
  /// of a run — call after observers are attached, before the loop.
  void configure_irqs();

  /// One service pass: ingest due arrivals, retire completions, dispatch
  /// ready jobs to idle workers. All timed, on the host stack.
  void service_once();

  /// True when the CPU has service work: an arrival is due, a worker
  /// finished, a backed-off retry matured, a watchdog deadline passed,
  /// or a slot swap completed. Pure function of component state
  /// (run_until-safe; the matching wake_at timers are armed when each
  /// deadline is set, and the swap-completion flag is raised inside the
  /// ICAP port's tick).
  [[nodiscard]] bool service_due() const {
    return arrival_due_ || irq_ctl_.cpu_line().raised() || retry_due() ||
           watchdog_due() || slots_due_;
  }

  /// All submitted work accounted for: every scheduled arrival ingested,
  /// queue drained, no batch in flight, no retry backing off, no
  /// bitstream mid-stream.
  [[nodiscard]] bool finished() const;

  // -- slot farm hooks (svc::SlotManager; docs/reconfiguration.md) ------
  /// Attach the slot-farm scheduler. service_once() calls its direct()
  /// every pass — after completions retire, before ready jobs dispatch,
  /// so freed workers can be retargeted first — and finished() waits
  /// out in-flight swaps.
  void set_slot_manager(SlotManager* m) { slots_ = m; }
  /// Raised from the ICAP completion callback (inside a tick) so the
  /// host loop wakes and the freed slot gets work immediately.
  void note_slots_due() { slots_due_ = true; }
  /// Mark worker @p i as slot-backed: its kind may change at runtime
  /// (retarget_worker) and a snapshot restore adopts the image's kind
  /// instead of rejecting the mismatch.
  void mark_worker_retargetable(std::size_t i) {
    workers_.at(i).retargetable = true;
  }
  /// Gate / un-gate worker @p i while its region reconfigures: a gated
  /// worker is skipped by dispatch_ready().
  void set_worker_reconfiguring(std::size_t i, bool on) {
    workers_.at(i).reconfiguring = on;
  }
  [[nodiscard]] bool worker_reconfiguring(std::size_t i) const {
    return workers_.at(i).reconfiguring;
  }
  /// Quiesce a busy worker for a swap: timed recovery sequence (the same
  /// RST + settle the fault path uses), then its in-flight batch goes
  /// back to the *head* of the queue — no attempts bump, preemption is
  /// the scheduler's doing, not the job's failure. Returns the number of
  /// re-queued jobs (0 when the worker was idle).
  u32 preempt_worker(std::size_t i);
  /// Point an idle worker at a new job kind (the slot finished swapping).
  /// Every kind shares block_words, so the resident batch program stays
  /// valid and installed_batch survives the retarget.
  void retarget_worker(std::size_t i, JobKind kind);

  // -- introspection (trace signals, report) ---------------------------
  [[nodiscard]] const JobQueue& queue() const { return queue_; }
  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }
  [[nodiscard]] bool worker_busy(std::size_t i) const {
    return workers_.at(i).busy;
  }
  [[nodiscard]] JobKind worker_kind(std::size_t i) const {
    return workers_.at(i).kind;
  }
  [[nodiscard]] const WorkerStats& worker_stats(std::size_t i) const {
    return workers_.at(i).stats;
  }
  [[nodiscard]] u64 completed() const { return completed_; }
  [[nodiscard]] u64 rejected() const { return queue_.rejected(); }
  [[nodiscard]] u32 in_flight() const { return in_flight_; }

  // -- fault-aware introspection ---------------------------------------
  [[nodiscard]] u64 faults() const { return faults_; }
  [[nodiscard]] u64 retries() const { return retries_; }
  [[nodiscard]] u64 failed() const { return failed_; }
  [[nodiscard]] u64 irq_recoveries() const { return irq_recoveries_; }
  [[nodiscard]] u32 quarantined_count() const;
  [[nodiscard]] bool worker_quarantined(std::size_t i) const {
    return workers_.at(i).quarantined;
  }
  /// Cycles worker @p i has sat quarantined as of @p wall (0 when it
  /// never was) — the CycleLedger's kWait share for service workers.
  [[nodiscard]] u64 worker_quarantined_cycles(std::size_t i,
                                              Cycle wall) const;

  /// Attach (or detach, nullptr) an event tracer; call after the last
  /// add_worker(). Emits: enqueue instants + queue/in-flight counters on
  /// "svc.sched", one "batch" span per launch on "svc.worker.<ocp>", one
  /// per-job span (arrival -> completion, annotated with wait/service
  /// split) on "svc.jobs", and a flow arrow stitching each job's
  /// enqueue -> dispatch -> retire across those tracks. Also forwards to
  /// every worker session (driver spans land on their "drv.*" tracks).
  /// A worker quarantine or watchdog expiry calls the tracer's
  /// trigger(), which latches a bounded ring for a post-mortem dump.
  void set_tracer(obs::EventTracer* tracer);

  // sim::Component (the arrival doorbell).
  void tick_commit() override;
  [[nodiscard]] bool is_quiescent() const override;
  /// Queue contents, schedule position, per-worker in-flight batches and
  /// stats, retry backlog, and the run counters. Worker count/kind must
  /// match the image (same ServiceConfig); sessions carry their drivers'
  /// IE/CHAIN shadows, plus the stage machine for two-stage ones. The
  /// retry policy and hooks are host wiring.
  void save_state(snap::StateWriter& w) const override;
  void restore_state(snap::StateReader& r) override;

  /// Warm-boot: zero every per-run counter (queue accept/reject, worker
  /// stats, fault accounting) while keeping the warm microstate —
  /// resident programs (installed_batch), IRQ configuration, cache
  /// contents — so a cloned shard's report covers only its own run.
  void reset_run_counters();

 private:
  struct Worker {
    std::unique_ptr<drv::ChainSession> session;
    std::vector<u32> irq_sources;  ///< IrqController bit, per stage
    JobKind kind = JobKind::kIdct;
    u32 max_batch = 1;
    std::vector<Job> batch;    ///< jobs of the in-flight launch
    u32 installed_batch = 0;   ///< batch size the resident program serves
    bool busy = false;
    Cycle busy_since = 0;
    u32 consecutive_faults = 0;  ///< faulted batches since the last success
    bool quarantined = false;    ///< permanently sidelined for this run
    Cycle quarantine_since = 0;
    bool retargetable = false;   ///< slot-backed: kind may change at runtime
    bool reconfiguring = false;  ///< region mid-swap: no dispatches
    WorkerStats stats;
    obs::TrackId track = 0;    ///< "svc.worker.<ocp>" (tracer attached)
  };

  /// A job waiting out its retry backoff.
  struct PendingRetry {
    Cycle ready_at = 0;
    Job job;
  };

  void ingest_arrivals();
  void retire_completions();
  void dispatch_ready();
  void launch(std::size_t wi, std::vector<Job> batch);
  /// The active stage interrupted (or the watchdog found it done): one
  /// timed CTRL read, then fault, spurious, advance to the next stage,
  /// or retire the batch.
  void complete_stage(Worker& w);
  void retire_batch(Worker& w);
  /// Close @p w's in-flight batch at now(): bill busy_cycles, free the
  /// worker, charge the retire bookkeeping and emit the "batch" span
  /// (annotated `@p aborted = 1` when non-null). Returns the jobs.
  std::vector<Job> end_batch(Worker& w, const char* aborted);
  void trace_enqueue(u64 id, JobKind kind);
  void trace_queue_counters();

  // -- fault handling (all early-return when policy_ is unarmed) --------
  [[nodiscard]] bool retry_due() const {
    return !retry_queue_.empty() &&
           retry_queue_.front().ready_at <= kernel().now();
  }
  /// Watchdog deadline of @p w's active stage, which started with the
  /// batch or, for an advanced stage, at the advance.
  [[nodiscard]] Cycle watchdog_deadline(const Worker& w) const {
    return std::max(w.busy_since, w.session->stage_since()) +
           policy_.watchdog_cycles;
  }
  [[nodiscard]] bool watchdog_due() const;
  void check_watchdogs();
  void requeue_retries();
  void fail_unservable();
  void handle_worker_fault(Worker& w, fault::FaultClass cls);
  void penalize_worker(Worker& w);
  void fault_job(Job job, fault::FaultClass cls, Cycle now);
  void fail_job(const Job& job, fault::FaultClass cls);

  cpu::Gpp& gpp_;
  mem::Sram& mem_;
  cpu::IrqController& irq_ctl_;
  Addr irq_ctl_base_;
  JobQueue queue_;
  std::vector<Worker> workers_;
  std::vector<Job> schedule_;
  std::size_t next_arrival_ = 0;
  bool arrival_due_ = false;
  u32 in_flight_ = 0;   ///< jobs currently launched on some worker
  u64 completed_ = 0;
  RetryPolicy policy_;
  std::vector<PendingRetry> retry_queue_;  ///< sorted by ready_at
  u64 faults_ = 0;           ///< worker fault events (batch granularity)
  u64 retries_ = 0;          ///< retry launches scheduled
  u64 failed_ = 0;           ///< jobs given up on (budget / unservable)
  u64 irq_recoveries_ = 0;   ///< completions found by the watchdog poll
  SlotManager* slots_ = nullptr;  ///< slot-farm scheduler (optional)
  bool slots_due_ = false;   ///< a swap completed since the last pass
  std::function<void(const Job&)> completion_hook_;
  std::function<void(const Job&)> failure_hook_;
  obs::EventTracer* tracer_ = nullptr;
  obs::TrackId sched_track_ = 0;  ///< "svc.sched": instants + counters
  obs::TrackId jobs_track_ = 0;   ///< "svc.jobs": per-job lifetime spans
};

}  // namespace ouessant::svc
