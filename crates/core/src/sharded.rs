//! The sharded parallel engine: one run advanced by several worker
//! threads under conservative epoch synchronization, with results
//! **byte-identical** to the sequential engine.
//!
//! # How it works
//!
//! The mesh's nodes (CUs with their L1s, plus the L2 banks homed at
//! each node) are partitioned into contiguous shards
//! ([`gsim_shard::Partition`]). Each worker thread owns one shard's
//! full component state and advances it one *populated cycle* at a
//! time; the coordinator owns everything globally shared — the event
//! calendar (split per shard, with a parallel shard-token queue that
//! preserves the global `(cycle, push order)`), the one mesh (link
//! arbitration is global state), and the optional race detector.
//!
//! Per cycle `t`: the coordinator pops every shard's cycle-`t` events
//! (the *batch*) and the cycle-`t` shard tokens, dispatches the batches
//! to the workers **in parallel**, and collects one side-effect log per
//! processed event. Workers defer everything cross-cutting: future
//! pushes, mesh sends, race-detector operations. The coordinator then
//! replays the logs in the exact global order the sequential engine
//! would have produced — reconstructed by walking the shard tokens
//! ([`gsim_shard::TokenWalk`]): each token names the shard whose event
//! ran next globally, and a same-cycle local push spawns a new token
//! for that shard at the back, exactly mirroring a sequential
//! same-cycle push going to the back of the global queue. Replayed
//! sends go through the one mesh in that global order, so link
//! arbitration — and with it every arrival cycle, traffic counter, and
//! downstream timing — is identical to the sequential run.
//!
//! Kernel-lifecycle transitions (launch, end-of-kernel release,
//! drained) run at cycle boundaries in *both* engines (see
//! [`KernelPhase`]), so a worker never needs another shard's progress
//! mid-cycle.
//!
//! # Why one cycle per epoch
//!
//! The conservative `lookahead` (minimum cross-shard NoC latency,
//! [`gsim_noc::MeshConfig::min_remote_latency`]) guarantees a message
//! sent at cycle `t` cannot affect another shard before `t +
//! lookahead`, which would permit multi-cycle epochs — but only up to
//! *timing isolation*, not byte-identity: two shards' sends within one
//! epoch can share a mesh link (XY routing funnels through-traffic over
//! the same row/column links), and link arbitration order would then
//! depend on epoch width. The engine therefore synchronizes every
//! populated cycle and keeps the lookahead as a runtime *assertion* on
//! every cross-shard delivery. Idle cycles are skipped entirely (the
//! calendars jump to the next populated cycle), so a barrier is paid
//! only where the sequential engine would have processed an event.

use crate::config::SystemConfig;
use crate::equeue::CalendarQueue;
use crate::sim::{
    audit_ownership, Event, EventFx, FxItem, KernelPhase, Machine, ShardFinish, ShardStatus,
    SimError,
};
use crate::workload::Workload;
use gsim_check::{CheckReport, RaceDetector, Violation};
use gsim_energy::EnergyModel;
use gsim_mem::MemoryImage;
use gsim_noc::Mesh;
use gsim_shard::{Partition, TokenWalk};
use gsim_types::{Counts, Cycle, LatencyBreakdown, SimStats, WordMask};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread;

/// Coordinator → worker commands. One channel pair per worker; a
/// dropped channel (coordinator bailing on an error) shuts the worker
/// down cleanly.
enum Cmd {
    /// Process this shard's cycle-`now` events (already in global
    /// order) and reply with [`Rsp::Phase`].
    Phase { now: Cycle, batch: Vec<Event> },
    /// Kernel-launch boundary: launch this shard's slice of kernel
    /// `index` at cycle `now`; reply [`Rsp::Boundary`].
    StartKernel { now: Cycle, index: usize },
    /// Kernel-end boundary: issue the end-of-kernel releases at cycle
    /// `now`; reply [`Rsp::Boundary`].
    EndKernel { now: Cycle },
    /// Kernel-drained boundary (store-buffer audit); reply
    /// [`Rsp::Drained`].
    KernelDrained,
    /// The watchdog fired: reply with this shard's state dump.
    Watchdog,
    /// End of run: reply with [`Rsp::Finish`] and exit.
    Finish,
}

/// Worker → coordinator replies (always collected in shard order, so
/// reduction over shards is deterministic).
enum Rsp {
    Phase {
        log: Vec<EventFx>,
        status: ShardStatus,
    },
    Boundary {
        fx: EventFx,
        status: ShardStatus,
    },
    Drained,
    Watchdog(String),
    Finish(Box<ShardFinish>),
}

/// One worker thread: builds its shard's machine locally (component
/// state holds non-`Send` internals, so it must be born on this
/// thread) and serves commands until the run ends or the coordinator
/// hangs up.
fn worker_main(
    config: &SystemConfig,
    workload: &Workload,
    shard: usize,
    nodes: Range<usize>,
    rx: Receiver<Cmd>,
    tx: Sender<Rsp>,
) {
    let mut m = Machine::new_worker(config, workload, shard, nodes);
    loop {
        // A closed channel means the coordinator already returned (an
        // error path): exit quietly, the run result is decided.
        let Ok(cmd) = rx.recv() else { return };
        let rsp = match cmd {
            Cmd::Phase { now, batch } => {
                let log = m.run_phase(now, batch);
                Rsp::Phase {
                    log,
                    status: m.shard_status(),
                }
            }
            Cmd::StartKernel { now, index } => {
                let fx = m.shard_start_kernel(now, index, &workload.kernels[index]);
                Rsp::Boundary {
                    fx,
                    status: m.shard_status(),
                }
            }
            Cmd::EndKernel { now } => {
                let fx = m.shard_end_kernel(now);
                Rsp::Boundary {
                    fx,
                    status: m.shard_status(),
                }
            }
            Cmd::KernelDrained => {
                m.shard_kernel_drained();
                Rsp::Drained
            }
            Cmd::Watchdog => Rsp::Watchdog(m.watchdog_report()),
            Cmd::Finish => {
                let fin = m.shard_finish();
                let _ = tx.send(Rsp::Finish(Box::new(fin)));
                return;
            }
        };
        if tx.send(rsp).is_err() {
            return;
        }
    }
}

/// Runs `workload` on the sharded engine and returns statistics
/// byte-identical to [`crate::Simulator::run`] on the sequential
/// engine.
pub(crate) fn run_sharded(
    config: &SystemConfig,
    workload: &Workload,
    shards: usize,
    lookahead: Cycle,
) -> Result<SimStats, SimError> {
    let partition = Partition::new(config.topology.nodes(), shards);
    let n = partition.shards();
    thread::scope(|scope| {
        let mut to_worker = Vec::with_capacity(n);
        let mut from_worker = Vec::with_capacity(n);
        for s in 0..n {
            let (ctx, crx) = channel::<Cmd>();
            let (rtx, rrx) = channel::<Rsp>();
            let range = partition.range(s);
            scope.spawn(move || worker_main(config, workload, s, range, crx, rtx));
            to_worker.push(ctx);
            from_worker.push(rrx);
        }
        Coordinator {
            config,
            workload,
            partition: &partition,
            lookahead,
            to_worker,
            from_worker,
            queues: (0..n).map(|_| CalendarQueue::new()).collect(),
            order: CalendarQueue::new(),
            // Observers (trace/flow) are sequential-only — the
            // dispatcher falls back — so the coordinator's mesh runs
            // bare.
            mesh: Mesh::with_topology(config.topology),
            races: config.check.races().then(|| Box::new(RaceDetector::new())),
            report: CheckReport::default(),
            phase: KernelPhase::Launch(0),
            kernel_index: 0,
            kernels_done: 0,
            status: vec![
                ShardStatus {
                    tbs_finished: 0,
                    tbs_total: 0,
                    drain_left: 0
                };
                n
            ],
            now: 0,
        }
        .run()
    })
}

struct Coordinator<'a> {
    config: &'a SystemConfig,
    workload: &'a Workload,
    partition: &'a Partition,
    lookahead: Cycle,
    to_worker: Vec<Sender<Cmd>>,
    from_worker: Vec<Receiver<Rsp>>,
    /// Per-shard future-event calendars. Together with `order` they
    /// are the sequential engine's one global queue, split by owner.
    queues: Vec<CalendarQueue<Event>>,
    /// The shard of every queued event, pushed in lockstep with
    /// `queues` — its `(cycle, push order)` pops reconstruct the global
    /// interleave.
    order: CalendarQueue<usize>,
    /// The one global mesh: every send is replayed through it in the
    /// global order, so link arbitration matches the sequential engine.
    mesh: Mesh,
    /// The one race detector (under `CheckLevel::Full`): workers log
    /// [`FxItem::Race`] operations, the coordinator applies them in the
    /// global order.
    races: Option<Box<RaceDetector>>,
    report: CheckReport,
    phase: KernelPhase,
    kernel_index: usize,
    kernels_done: usize,
    /// Last-reported progress per shard (a shard's counters only move
    /// when it processes events, so a stale entry is still accurate).
    status: Vec<ShardStatus>,
    now: Cycle,
}

impl Coordinator<'_> {
    fn run(mut self) -> Result<SimStats, SimError> {
        let total_kernels = self.workload.kernels.len();
        loop {
            while self.boundary_ready() && self.next_cycle() != Some(self.now) {
                self.kernel_boundary_step();
            }
            let Some(t) = self.next_cycle() else {
                break;
            };
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            if self.now > self.config.max_cycles {
                return Err(SimError::Watchdog {
                    cycles: self.config.max_cycles,
                    report: self.watchdog_report(),
                });
            }
            self.run_cycle(t);
        }
        assert_eq!(
            self.kernels_done, total_kernels,
            "event queues drained before every kernel completed (deadlock)"
        );
        self.finish()
    }

    /// The next populated cycle across every shard's calendar (`None`
    /// when the run is over).
    fn next_cycle(&self) -> Option<Cycle> {
        // `order` mirrors every push, so its head cycle is the head
        // cycle of the union of the shard calendars.
        self.order.next_cycle()
    }

    fn boundary_ready(&self) -> bool {
        match self.phase {
            KernelPhase::Launch(_) => true,
            KernelPhase::Running => {
                let (fin, tot) = self
                    .status
                    .iter()
                    .fold((0, 0), |(f, t), s| (f + s.tbs_finished, t + s.tbs_total));
                fin == tot
            }
            KernelPhase::Draining => self.status.iter().all(|s| s.drain_left == 0),
            KernelPhase::Finished => false,
        }
    }

    /// One kernel-lifecycle transition at a cycle boundary — the mirror
    /// of the sequential engine's `kernel_boundary_step`, spread over
    /// the workers. Boundary side effects are replayed in shard order,
    /// which (shards being ascending node ranges) is exactly the
    /// sequential engine's node-order traversal.
    fn kernel_boundary_step(&mut self) {
        match self.phase {
            KernelPhase::Launch(i) => {
                if i < self.workload.kernels.len() {
                    if let Some(r) = &mut self.races {
                        r.begin_kernel(self.workload.kernels[i].tbs.len());
                    }
                    self.kernel_index = i;
                    let now = self.now;
                    self.boundary_broadcast(|_| Cmd::StartKernel { now, index: i });
                    self.phase = KernelPhase::Running;
                } else {
                    self.phase = KernelPhase::Finished;
                }
            }
            KernelPhase::Running => {
                let now = self.now;
                self.boundary_broadcast(|_| Cmd::EndKernel { now });
                self.phase = KernelPhase::Draining;
            }
            KernelPhase::Draining => {
                for tx in &self.to_worker {
                    tx.send(Cmd::KernelDrained).expect("worker died");
                }
                for rx in &self.from_worker {
                    match rx.recv().expect("worker died") {
                        Rsp::Drained => {}
                        _ => unreachable!("worker protocol violation"),
                    }
                }
                self.kernels_done += 1;
                self.phase = KernelPhase::Launch(self.kernel_index + 1);
            }
            KernelPhase::Finished => unreachable!("no boundary past the last kernel"),
        }
    }

    /// Sends one boundary command to every worker, then replays each
    /// reply's side effects in shard order.
    fn boundary_broadcast(&mut self, cmd: impl Fn(usize) -> Cmd) {
        for (s, tx) in self.to_worker.iter().enumerate() {
            tx.send(cmd(s)).expect("worker died");
        }
        for s in 0..self.from_worker.len() {
            let (fx, status) = match self.from_worker[s].recv().expect("worker died") {
                Rsp::Boundary { fx, status } => (fx, status),
                _ => unreachable!("worker protocol violation"),
            };
            self.status[s] = status;
            self.replay(s, fx, self.now);
        }
    }

    /// One populated cycle: pop every shard's cycle-`t` events and the
    /// matching shard tokens, run the phases in parallel, then replay
    /// the logs in the reconstructed global order.
    fn run_cycle(&mut self, t: Cycle) {
        let mut initial = Vec::new();
        while self.order.next_cycle() == Some(t) {
            let (_, _, s) = self.order.pop().expect("peeked");
            initial.push(s);
        }
        let n = self.queues.len();
        let mut dispatched = Vec::with_capacity(n);
        for s in 0..n {
            let mut batch = Vec::new();
            while self.queues[s].next_cycle() == Some(t) {
                let (_, _, ev) = self.queues[s].pop().expect("peeked");
                batch.push(ev);
            }
            if batch.is_empty() {
                continue;
            }
            // All sends go out before any reply is awaited: the shards
            // with work this cycle run concurrently.
            self.to_worker[s]
                .send(Cmd::Phase { now: t, batch })
                .expect("worker died");
            dispatched.push(s);
        }
        let mut logs: Vec<VecDeque<EventFx>> = (0..n).map(|_| VecDeque::new()).collect();
        for &s in &dispatched {
            let (log, status) = match self.from_worker[s].recv().expect("worker died") {
                Rsp::Phase { log, status } => (log, status),
                _ => unreachable!("worker protocol violation"),
            };
            self.status[s] = status;
            logs[s] = log.into();
        }
        // The token walk: each popped token names the shard whose event
        // ran next in the global order; its log entry's local pushes
        // spawn follow-up tokens, exactly like a sequential same-cycle
        // push landing at the back of the global queue.
        let mut walk = TokenWalk::new(initial);
        while let Some(s) = walk.next() {
            let fx = logs[s]
                .pop_front()
                .expect("shard processed fewer events than the token walk expects");
            for item in fx {
                if let FxItem::LocalPush = item {
                    walk.spawn(s);
                } else {
                    self.replay_item(s, item, t);
                }
            }
        }
        debug_assert!(
            logs.iter().all(VecDeque::is_empty),
            "shard processed more events than the token walk expects"
        );
    }

    /// Replays one whole side-effect log (boundary steps: the walk is
    /// trivial — one shard, no local pushes).
    fn replay(&mut self, s: usize, fx: EventFx, t: Cycle) {
        for item in fx {
            debug_assert!(
                !matches!(item, FxItem::LocalPush),
                "boundary steps defer every push"
            );
            self.replay_item(s, item, t);
        }
    }

    /// Applies one deferred side effect in its global-order slot.
    fn replay_item(&mut self, s: usize, item: FxItem, t: Cycle) {
        match item {
            FxItem::LocalPush => unreachable!("handled by the token walk"),
            FxItem::Future { at, ev } => {
                debug_assert!(at >= t, "a deferred push cannot target the past");
                self.queues[s].push(at, ev);
                self.order.push(at, s);
            }
            FxItem::Send { delay, msg } => {
                let arrival = self.mesh.send(t + delay, &msg);
                let d = self.partition.shard_of(msg.dst.index());
                debug_assert!(arrival > t, "a delivery cannot land in a finished cycle");
                assert!(
                    d == s || arrival >= t + self.lookahead,
                    "cross-shard delivery at {arrival} violates the {}-cycle lookahead \
                     (sent at {t})",
                    self.lookahead
                );
                self.queues[d].push(arrival, Event::Deliver(Box::new(msg)));
                self.order.push(arrival, d);
            }
            FxItem::Race(op) => {
                if let Some(r) = &mut self.races {
                    op.apply(r);
                }
            }
        }
    }

    /// End of run: collect every shard's audits/stats/memory, run the
    /// coordinator-side audits (mesh quiesce, cross-shard ownership),
    /// merge the memory image, verify, and assemble the statistics.
    fn finish(mut self) -> Result<SimStats, SimError> {
        for tx in &self.to_worker {
            tx.send(Cmd::Finish).expect("worker died");
        }
        let mut fins: Vec<ShardFinish> = Vec::with_capacity(self.from_worker.len());
        for rx in &self.from_worker {
            match rx.recv().expect("worker died") {
                Rsp::Finish(f) => fins.push(*f),
                _ => unreachable!("worker protocol violation"),
            }
        }
        // Shard-local violations first (shard order = node order), then
        // the coordinator-side audits.
        for f in &fins {
            for v in f.report.violations.iter().cloned() {
                self.report.push(v);
            }
            self.report.truncated += f.report.truncated;
        }
        if self.config.check.invariants() {
            let busy = self.mesh.links_busy_after(self.now);
            if busy > 0 {
                self.report.push(Violation::new(
                    gsim_check::CheckKind::QuiesceLeak,
                    format!("{busy} NoC link(s) busy past the final cycle (alloc event: msg-send)"),
                ));
            }
            let mut owned = Vec::new();
            let mut registry = Vec::new();
            for f in &fins {
                owned.extend(f.owned.iter().map(|&(w, node, _)| (w, node)));
                registry.extend(f.registry.iter().copied());
            }
            for (kind, detail) in audit_ownership(&owned, &registry) {
                self.report.push(Violation::new(kind, detail));
            }
        }
        if let Some(mut r) = self.races.take() {
            for v in r.take_found() {
                self.report.push(v);
            }
        }
        if !self.report.is_clean() {
            return Err(SimError::Check {
                report: self.report.to_string(),
            });
        }
        // Memory merge: start from the initial image, take every
        // touched line from the image of the shard owning its home L2
        // bank (that shard's flush wrote it), then re-apply owned words
        // whose home bank lives on another shard (the sequential
        // functional drain writes those into memory directly).
        let mut memory = MemoryImage::new();
        (self.workload.init)(&mut memory);
        let banks = self.config.l2.banks as u64;
        for (s, f) in fins.iter().enumerate() {
            for line in f.memory.touched_line_addrs() {
                let home = (line.0 % banks) as usize;
                if self.partition.shard_of(home) == s {
                    let data = f.memory.read_line(line);
                    memory.write_line(line, WordMask::full(), &data);
                }
            }
        }
        for (s, f) in fins.iter().enumerate() {
            for &(w, _, v) in &f.owned {
                let home = (w.line().0 % banks) as usize;
                if self.partition.shard_of(home) != s {
                    memory.write_word(w, v);
                }
            }
        }
        (self.workload.verify)(&memory).map_err(SimError::Verify)?;
        let mut counts = Counts::default();
        let mut latency = LatencyBreakdown::default();
        for f in &fins {
            counts += f.counts;
            latency += f.latency;
        }
        counts.messages_sent = self.mesh.messages_sent();
        counts.flit_hops = self.mesh.flit_hops();
        let traffic = *self.mesh.traffic();
        let energy = EnergyModel::micro15().energy(&counts, &traffic);
        Ok(SimStats {
            cycles: self.now,
            counts,
            traffic,
            energy,
            latency,
        })
    }

    /// Concatenates every shard's watchdog dump.
    fn watchdog_report(&self) -> String {
        for tx in &self.to_worker {
            tx.send(Cmd::Watchdog).expect("worker died");
        }
        let mut out = String::new();
        for (s, rx) in self.from_worker.iter().enumerate() {
            match rx.recv().expect("worker died") {
                Rsp::Watchdog(r) => {
                    out.push_str(&format!("shard {s}:\n{r}"));
                }
                _ => unreachable!("worker protocol violation"),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::kernel::{imm, r, AluOp, KernelBuilder};
    use crate::workload::{KernelLaunch, TbSpec, Workload};
    use crate::{Simulator, SystemConfig};
    use gsim_types::{AtomicOp, ProtocolConfig, Scope, SyncOrd, WordAddr};

    fn store_load(tbs: usize) -> Workload {
        let mut b = KernelBuilder::new();
        b.mov(1, imm(0));
        b.st(b.at(1, 3), imm(99));
        b.ld(2, b.at(1, 3));
        b.st(b.at(1, 4), r(2));
        b.halt();
        Workload {
            name: "store-load".into(),
            init: Box::new(|_| {}),
            kernels: vec![KernelLaunch {
                program: b.build(),
                tbs: vec![TbSpec::with_regs(&[]); tbs],
            }],
            verify: Box::new(|mem| {
                (mem.read_word(WordAddr(4)) == 99)
                    .then_some(())
                    .ok_or_else(|| "lost the store".to_string())
            }),
        }
    }

    fn counter(tbs: u32) -> Workload {
        let mut b = KernelBuilder::new();
        b.mov(1, imm(0));
        b.atomic(
            2,
            b.at(1, 0),
            AtomicOp::Add,
            imm(1),
            imm(0),
            SyncOrd::AcqRel,
            Scope::Global,
        );
        b.halt();
        Workload {
            name: "counter".into(),
            init: Box::new(|_| {}),
            kernels: vec![KernelLaunch {
                program: b.build(),
                tbs: vec![TbSpec::with_regs(&[]); tbs as usize],
            }],
            verify: Box::new(move |mem| {
                let got = mem.read_word(WordAddr(0));
                (got == tbs)
                    .then_some(())
                    .ok_or_else(|| format!("counter: got {got}, want {tbs}"))
            }),
        }
    }

    fn spinlock(tbs: u32, iters: u32) -> Workload {
        let mut b = KernelBuilder::new();
        b.mov(1, imm(0));
        b.mov(5, imm(iters));
        b.label("iter");
        b.label("spin");
        b.atomic(
            2,
            b.at(1, 0),
            AtomicOp::Exch,
            imm(1),
            imm(0),
            SyncOrd::AcqRel,
            Scope::Global,
        );
        b.bnz(r(2), "spin");
        b.ld(3, b.at(1, 1));
        b.alu_add(3, r(3), imm(1));
        b.st(b.at(1, 1), r(3));
        b.atomic(
            2,
            b.at(1, 0),
            AtomicOp::Write,
            imm(0),
            imm(0),
            SyncOrd::Release,
            Scope::Global,
        );
        b.alu(5, r(5), AluOp::Sub, imm(1));
        b.bnz(r(5), "iter");
        b.halt();
        Workload {
            name: "spinlock".into(),
            init: Box::new(|_| {}),
            kernels: vec![KernelLaunch {
                program: b.build(),
                tbs: vec![TbSpec::with_regs(&[]); tbs as usize],
            }],
            verify: Box::new(move |mem| {
                let got = mem.read_word(WordAddr(1));
                let want = tbs * iters;
                (got == want)
                    .then_some(())
                    .ok_or_else(|| format!("counter: got {got}, want {want}"))
            }),
        }
    }

    fn two_kernels() -> Workload {
        let mut b1 = KernelBuilder::new();
        b1.mov(1, imm(0));
        b1.st(b1.at(1, 0), imm(21));
        b1.halt();
        let mut b2 = KernelBuilder::new();
        b2.mov(1, imm(0));
        b2.ld(2, b2.at(1, 0));
        b2.alu_add(2, r(2), r(2));
        b2.st(b2.at(1, 1), r(2));
        b2.halt();
        Workload {
            name: "two-kernels".into(),
            init: Box::new(|_| {}),
            kernels: vec![
                KernelLaunch {
                    program: b1.build(),
                    tbs: vec![TbSpec::with_regs(&[]); 20],
                },
                KernelLaunch {
                    program: b2.build(),
                    tbs: vec![TbSpec::with_regs(&[])],
                },
            ],
            verify: Box::new(|mem| {
                let got = mem.read_word(WordAddr(1));
                (got == 42)
                    .then_some(())
                    .ok_or_else(|| format!("got {got}, want 42"))
            }),
        }
    }

    fn assert_identical(mk: &dyn Fn() -> Workload) {
        for p in ProtocolConfig::ALL {
            let seq = Simulator::new(SystemConfig::micro15(p))
                .run(&mk())
                .unwrap_or_else(|e| panic!("{p} sequential: {e}"));
            for shards in [1, 2, 4] {
                let par = Simulator::new(SystemConfig::micro15(p).with_shards(shards))
                    .run(&mk())
                    .unwrap_or_else(|e| panic!("{p} shards={shards}: {e}"));
                assert_eq!(
                    seq.to_json(),
                    par.to_json(),
                    "{p} shards={shards}: stats diverged"
                );
            }
        }
    }

    #[test]
    fn sharded_store_load_matches_sequential() {
        assert_identical(&|| store_load(30));
    }

    #[test]
    fn sharded_atomic_counter_matches_sequential() {
        assert_identical(&counter_mk);
    }

    fn counter_mk() -> Workload {
        counter(30)
    }

    #[test]
    fn sharded_spinlock_matches_sequential() {
        assert_identical(&|| spinlock(30, 3));
    }

    #[test]
    fn sharded_multi_kernel_matches_sequential() {
        assert_identical(&two_kernels);
    }
}
