//! Layer probes: the benchmark's own op streams through each layer's
//! public API, shaped like the workload, timed to ns/op.
//!
//! The shape comes from the workload's own `SimStats`. The event
//! queue's deltas are drawn from the latencies the simulator measured
//! (its load-to-use and atomic round-trip histograms, where an L1 hit
//! records 1 cycle), and its depth follows from them by Little's law.
//! The share of traffic in the atomic class sets the mesh's message mix.

use crate::spans::Tracer;
use gsim_core::equeue::CalendarQueue;
use gsim_core::kernel::{imm, r, AluOp, KernelBuilder};
use gsim_core::{KernelLaunch, Simulator, SystemConfig, TbSpec, Workload};
use gsim_mem::{CacheArray, CacheGeometry, MemoryImage};
use gsim_noc::{Mesh, MeshConfig, Topology};
use gsim_protocol::denovo::DnConfig;
use gsim_protocol::{Action, ActionVec, DnL1, DnL2, GpuL1, GpuL2, L1Config, L2Config};
use gsim_types::{
    AtomicOp, Coherence, Component, Counts, LatencyHistogram, LineAddr, Msg, MsgClass, MsgKind,
    NodeId, ProtocolConfig, Region, ReqId, Rng64, Scope, SimStats, SyncOrd, WordAddr, WordMask,
    WORDS_PER_LINE,
};
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per probe; ns/op is the median batch's.
const BATCHES: usize = 5;

/// Lines kept resident in the L1-geometry probes: half the L1's 512.
const RESIDENT_LINES: u64 = 256;

/// Mesh nodes of the paper's 4x4 system (the L2 is banked over all).
const NODES: u64 = 16;

/// CUs of the paper's system; each has at most one issue tick queued.
const CUS: u64 = 15;

/// The calendar queue's default horizon in cycles: events scheduled
/// further out go to its overflow heap.
const HORIZON: u64 = 1024;

/// The workload's layer mix, as the probes use it.
pub struct Shape {
    /// Every load-to-use and atomic round-trip latency of the workload.
    latency: LatencyHistogram,
    /// Simulated cycles of the workload.
    cycles: u64,
    /// Share of flit crossings in the atomic class.
    atomic_share: f64,
}

impl Shape {
    pub fn of(stats: &[(ProtocolConfig, SimStats)]) -> Shape {
        let mut latency = LatencyHistogram::default();
        let (mut cycles, mut atomic, mut flits) = (0u64, 0u64, 0u64);
        for (_, s) in stats {
            latency += s.latency.load_to_use;
            latency += s.latency.atomic_rtt;
            cycles += s.cycles;
            atomic += s.traffic.class(MsgClass::Atomic);
            flits += s.traffic.total();
        }
        Shape {
            latency,
            cycles,
            atomic_share: atomic as f64 / flits.max(1) as f64,
        }
    }

    /// Share of the measured latencies at or beyond the queue's
    /// horizon (exact: the horizon is a bucket edge).
    pub fn overflow_frac(&self) -> f64 {
        let beyond: u64 = self.latency.buckets()[LatencyHistogram::bucket_index(HORIZON)..]
            .iter()
            .sum();
        beyond as f64 / self.latency.count().max(1) as f64
    }

    /// Events queued on average: one issue tick per CU plus the round
    /// trips in flight (Little's law: latency summed over cycles).
    fn queue_depth(&self) -> u64 {
        CUS + self.latency.sum() / self.cycles.max(1)
    }

    /// One latency drawn from the measured histogram: a bucket by its
    /// count, then a value uniformly within it and the observed range.
    fn draw_latency(&self, rng: &mut Rng64) -> u64 {
        let h = &self.latency;
        if h.is_empty() {
            return 1;
        }
        let buckets = h.buckets();
        let mut rank = rng.gen_u64(0, h.count());
        let mut k = 0;
        while rank >= buckets[k] {
            rank -= buckets[k];
            k += 1;
        }
        let lo = (if k == 0 { 1 } else { 1u64 << k }).max(h.min());
        let hi = LatencyHistogram::bucket_upper_bound(k).min(h.max());
        rng.gen_u64(lo.min(hi), hi + 1)
    }
}

/// Measured ns/op of every layer probe.
pub struct LayerCosts {
    alu_ns: f64,
    gpu_l1_load_ns: f64,
    dn_l1_load_ns: f64,
    image_read_ns: f64,
    image_write_ns: f64,
    send_ns: f64,
    gpu_l2_handle_ns: f64,
    dn_l2_handle_ns: f64,
    equeue_ns: f64,
    cache_lookup_ns: f64,
    cache_insert_ns: f64,
}

impl LayerCosts {
    pub fn named(&self) -> [(&'static str, f64); 11] {
        [
            ("core.kernel.alu_ns", self.alu_ns),
            ("protocol.gpu.l1_load_ns", self.gpu_l1_load_ns),
            ("protocol.denovo.l1_load_ns", self.dn_l1_load_ns),
            ("mem.image.read_ns", self.image_read_ns),
            ("mem.image.write_ns", self.image_write_ns),
            ("noc.send_ns", self.send_ns),
            ("protocol.gpu.l2_handle_ns", self.gpu_l2_handle_ns),
            ("protocol.denovo.l2_handle_ns", self.dn_l2_handle_ns),
            ("core.equeue.push_pop_ns", self.equeue_ns),
            ("mem.cache.lookup_ns", self.cache_lookup_ns),
            ("mem.cache.insert_ns", self.cache_insert_ns),
        ]
    }

    /// Host ns one cell's work costs at the probes' rates: every
    /// instruction at the interpreter's rate, every L1 access and L2
    /// access at its protocol's handler rate, every message one send and
    /// one queue push/pop, and every DRAM line a line of image words.
    /// Cache-array costs are inside the L1/L2 handler rates, so they are
    /// not added again.
    pub fn explain_ns(&self, config: ProtocolConfig, c: &Counts) -> f64 {
        let (l1, l2) = match config.coherence() {
            Coherence::Gpu => (self.gpu_l1_load_ns, self.gpu_l2_handle_ns),
            Coherence::DeNovo => (self.dn_l1_load_ns, self.dn_l2_handle_ns),
        };
        let words = WORDS_PER_LINE as f64;
        c.instructions as f64 * self.alu_ns
            + c.l1_accesses as f64 * l1
            + c.l2_accesses as f64 * l2
            + c.messages_sent as f64 * (self.send_ns + self.equeue_ns)
            + c.dram_reads as f64 * words * self.image_read_ns
            + c.dram_writes as f64 * words * self.image_write_ns
    }
}

/// Runs `op` over `n` ops in [`BATCHES`] spans named `probe.<name>`;
/// returns the median batch's ns/op.
fn per_op(tracer: &mut Tracer, name: &str, n: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut ns: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..n {
                op(i);
            }
            let t1 = Instant::now();
            tracer.push(format!("probe.{name}"), t0, t1);
            (t1 - t0).as_nanos() as f64 / n as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[BATCHES / 2]
}

fn home(line: LineAddr) -> NodeId {
    NodeId((line.0 % NODES) as u8)
}

/// Pumps `actions` between one L1 and the L2 until only completions
/// remain (warms the L1's lines).
fn pump(
    actions: ActionVec,
    l2: &mut dyn FnMut(&Msg) -> ActionVec,
    l1: &mut dyn FnMut(&Msg) -> ActionVec,
) {
    let mut queue: Vec<Action> = actions.into_iter().collect();
    while let Some(a) = queue.pop() {
        if let Action::Send { msg, .. } = a {
            let replies = match msg.dst_comp {
                Component::L2 => l2(&msg),
                Component::L1 => l1(&msg),
            };
            queue.extend(replies);
        }
    }
}

pub fn measure(shape: &Shape, seed: u64, tracer: &mut Tracer) -> LayerCosts {
    let mut rng = Rng64::seed_from_u64(seed);
    let equeue_ns = equeue(shape, &mut rng, tracer);
    let (image_read_ns, image_write_ns) = image(&mut rng, tracer);
    let (cache_lookup_ns, cache_insert_ns) = cache_array(&mut rng, tracer);
    let (gpu_l1_load_ns, dn_l1_load_ns) = l1_loads(&mut rng, tracer);
    let (gpu_l2_handle_ns, dn_l2_handle_ns) = l2_atomics(&mut rng, tracer);
    LayerCosts {
        alu_ns: alu(tracer),
        gpu_l1_load_ns,
        dn_l1_load_ns,
        image_read_ns,
        image_write_ns,
        send_ns: mesh(shape, &mut rng, tracer),
        gpu_l2_handle_ns,
        dn_l2_handle_ns,
        equeue_ns,
        cache_lookup_ns,
        cache_insert_ns,
    }
}

/// `CalendarQueue` in steady state at the workload's depth: each op
/// pops the earliest event and pushes its successor one measured
/// latency later.
fn equeue(shape: &Shape, rng: &mut Rng64, tracer: &mut Tracer) -> f64 {
    const N: usize = 400_000;
    let deltas: Vec<u64> = (0..N).map(|_| shape.draw_latency(rng)).collect();
    let depth = shape.queue_depth();
    eprintln!(
        "perfbench: event-queue probe at depth {depth}, latency mean {:.1} cycles",
        shape.latency.mean().unwrap_or(0.0)
    );
    let mut q: CalendarQueue<u32> = CalendarQueue::new();
    for i in 0..depth {
        q.push(i, i as u32);
    }
    per_op(tracer, "core.equeue", N, |i| {
        let (at, _, item) = q.pop().expect("queue stays at its depth");
        q.push(at + deltas[i], black_box(item));
    })
}

/// `MemoryImage` word writes then reads over a 1 MiB footprint.
fn image(rng: &mut Rng64, tracer: &mut Tracer) -> (f64, f64) {
    const N: usize = 500_000;
    let words: Vec<WordAddr> = (0..N).map(|_| WordAddr(rng.gen_u64(0, 1 << 18))).collect();
    let mut mem = MemoryImage::new();
    let write = per_op(tracer, "mem.image.write", N, |i| {
        mem.write_word(words[i], i as u32)
    });
    let read = per_op(tracer, "mem.image.read", N, |i| {
        black_box(mem.read_word(words[i]));
    });
    (read, write)
}

/// `CacheArray` at L1 geometry: lookups over a footprint below capacity
/// (all hits), inserts over one eight times above it (mostly evictions).
fn cache_array(rng: &mut Rng64, tracer: &mut Tracer) -> (f64, f64) {
    const N: usize = 500_000;
    let geometry = CacheGeometry::l1();
    let capacity = geometry.size_bytes / 64;
    let mut c: CacheArray<()> = CacheArray::new(geometry);
    for l in 0..RESIDENT_LINES {
        c.insert(LineAddr(l));
    }
    let hits: Vec<LineAddr> = (0..N)
        .map(|_| LineAddr(rng.gen_u64(0, RESIDENT_LINES)))
        .collect();
    let lookup = per_op(tracer, "mem.cache.lookup", N, |i| {
        black_box(c.lookup(hits[i]).is_some());
    });
    let misses: Vec<LineAddr> = (0..N)
        .map(|_| LineAddr(rng.gen_u64(0, 8 * capacity)))
        .collect();
    let insert = per_op(tracer, "mem.cache.insert", N, |i| {
        black_box(c.insert(misses[i]));
    });
    (lookup, insert)
}

/// `GpuL1::load` and `DnL1::load` hits on resident lines.
fn l1_loads(rng: &mut Rng64, tracer: &mut Tracer) -> (f64, f64) {
    const N: usize = 400_000;
    let words: Vec<WordAddr> = (0..N)
        .map(|_| WordAddr(rng.gen_u64(0, RESIDENT_LINES * WORDS_PER_LINE as u64)))
        .collect();

    let mut l1 = GpuL1::new(L1Config::micro15(NodeId(0)));
    let mut l2 = GpuL2::new(L2Config::default(), MemoryImage::new());
    for l in 0..RESIDENT_LINES {
        let (_, acts) = l1.load(LineAddr(l).word(0), ReqId(l));
        let mut l1_handle = |m: &Msg| l1.handle(m);
        pump(acts, &mut |m| l2.handle(0, m), &mut l1_handle);
    }
    let misses = l1.counts().l1_load_misses;
    let gpu = per_op(tracer, "protocol.gpu.l1_load", N, |i| {
        black_box(l1.load(words[i], ReqId(i as u64)));
    });
    assert_eq!(
        l1.counts().l1_load_misses,
        misses,
        "GPU L1 probe left the hit path"
    );

    let mut l1 = DnL1::new(DnConfig::micro15(NodeId(0)));
    let mut l2 = DnL2::new(L2Config::default(), MemoryImage::new());
    for l in 0..RESIDENT_LINES {
        let (_, acts) = l1.load(LineAddr(l).word(0), Region::Default, ReqId(l));
        let mut l1_handle = |m: &Msg| l1.handle(m);
        pump(acts, &mut |m| l2.handle(0, m), &mut l1_handle);
    }
    let misses = l1.counts().l1_load_misses;
    let dn = per_op(tracer, "protocol.denovo.l1_load", N, |i| {
        black_box(l1.load(words[i], Region::Default, ReqId(i as u64)));
    });
    assert_eq!(
        l1.counts().l1_load_misses,
        misses,
        "DeNovo L1 probe left the hit path"
    );
    (gpu, dn)
}

/// `GpuL2::handle` of a global fetch-add and `DnL2::handle` of a sync
/// registration, from requesters drawn at random from the 15 CUs, on 64
/// sync words (so DeNovo's registry forwards ownership most of the time).
fn l2_atomics(rng: &mut Rng64, tracer: &mut Tracer) -> (f64, f64) {
    const N: usize = 200_000;
    let reqs: Vec<(WordAddr, NodeId)> = (0..N)
        .map(|_| {
            let word = LineAddr(rng.gen_u64(0, 64)).word(0);
            (word, NodeId(rng.gen_u64(0, 15) as u8))
        })
        .collect();
    let mut l2 = GpuL2::new(L2Config::default(), MemoryImage::new());
    let gpu = per_op(tracer, "protocol.gpu.l2_handle", N, |i| {
        let (word, requester) = reqs[i];
        let msg = Msg {
            src: requester,
            dst: home(word.line()),
            dst_comp: Component::L2,
            kind: MsgKind::AtomicReq {
                word,
                op: AtomicOp::Add,
                operands: [1, 0],
                ord: SyncOrd::AcqRel,
                scope: Scope::Global,
                requester,
            },
        };
        black_box(l2.handle(4 * i as u64, &msg));
    });
    let mut l2 = DnL2::new(L2Config::default(), MemoryImage::new());
    let dn = per_op(tracer, "protocol.denovo.l2_handle", N, |i| {
        let (word, requester) = reqs[i];
        let msg = Msg {
            src: requester,
            dst: home(word.line()),
            dst_comp: Component::L2,
            kind: MsgKind::RegReq {
                line: word.line(),
                mask: WordMask::single(word.index_in_line()),
                sync: true,
                requester,
            },
        };
        black_box(l2.handle(4 * i as u64, &msg));
    });
    (gpu, dn)
}

/// `Mesh::send` on the 4x4 topology between uniformly random nodes; the
/// atomic share of the mix is the workload's, the rest read requests
/// and 5-flit line responses in equal parts.
fn mesh(shape: &Shape, rng: &mut Rng64, tracer: &mut Tracer) -> f64 {
    const N: usize = 400_000;
    const DISTINCT: usize = 4096;
    let msgs: Vec<Msg> = (0..DISTINCT)
        .map(|_| {
            let src = NodeId(rng.gen_u64(0, NODES) as u8);
            let dst = NodeId(rng.gen_u64(0, NODES) as u8);
            let line = LineAddr(rng.gen_u64(0, 1 << 16));
            let atomic = (rng.gen_u64(0, 1_000_000) as f64 / 1e6) < shape.atomic_share;
            let kind = match (atomic, rng.gen_bool()) {
                (true, true) => MsgKind::AtomicReq {
                    word: line.word(0),
                    op: AtomicOp::Exch,
                    operands: [1, 0],
                    ord: SyncOrd::AcqRel,
                    scope: Scope::Global,
                    requester: src,
                },
                (true, false) => MsgKind::AtomicResp {
                    word: line.word(0),
                    old: 0,
                },
                (false, true) => MsgKind::ReadReq {
                    line,
                    mask: WordMask::full(),
                    requester: src,
                },
                (false, false) => MsgKind::ReadResp {
                    line,
                    mask: WordMask::full(),
                    data: [0; WORDS_PER_LINE],
                },
            };
            Msg {
                src,
                dst,
                dst_comp: Component::L2,
                kind,
            }
        })
        .collect();
    let mut mesh = Mesh::with_topology(Topology::single(MeshConfig::default()));
    per_op(tracer, "noc.send", N, |i| {
        black_box(mesh.send(2 * i as u64, &msgs[i % DISTINCT]));
    })
}

/// A compute-only kernel (ALU ops and a loop branch) on the paper
/// system's 45 resident thread blocks, run through `Simulator::run`:
/// ns per interpreted instruction, engine dispatch included.
fn alu(tracer: &mut Tracer) -> f64 {
    const ITERS: u32 = 4_000;
    let mut b = KernelBuilder::new();
    b.mov(1, imm(0));
    b.label("loop");
    b.alu_add(1, r(1), imm(3));
    b.alu(2, r(1), AluOp::Xor, imm(0x55));
    b.alu(0, r(0), AluOp::Sub, imm(1));
    b.bnz(r(0), "loop");
    b.halt();
    let program = b.build();
    let w = Workload {
        name: "alu".into(),
        init: Box::new(|_| {}),
        kernels: vec![KernelLaunch {
            program,
            tbs: (0..45).map(|_| TbSpec::with_regs(&[ITERS])).collect(),
        }],
        verify: Box::new(|_| Ok(())),
    };
    let sim = Simulator::new(SystemConfig::micro15(ProtocolConfig::Gd));
    let instructions = sim
        .run(&w)
        .expect("compute-only kernel runs")
        .counts
        .instructions;
    per_op(tracer, "core.kernel.alu", 1, |_| {
        black_box(sim.run(&w).expect("compute-only kernel runs"));
    }) / instructions as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_follows_the_measured_latencies() {
        let mut s = SimStats {
            cycles: 100,
            ..SimStats::default()
        };
        for v in [1, 1, 1, 40] {
            s.latency.load_to_use.record(v);
        }
        s.latency.atomic_rtt.record(2000);
        let shape = Shape::of(&[(ProtocolConfig::Gd, s)]);
        assert_eq!(shape.overflow_frac(), 0.2);
        // 15 issue ticks plus 2043 cycles of latency over 100 cycles.
        assert_eq!(shape.queue_depth(), 15 + 20);
        let mut rng = Rng64::seed_from_u64(1);
        let draws: Vec<u64> = (0..10_000).map(|_| shape.draw_latency(&mut rng)).collect();
        assert!(draws
            .iter()
            .all(|&d| d == 1 || (32..64).contains(&d) || (1024..=2000).contains(&d)));
        let far = draws.iter().filter(|&&d| d >= HORIZON).count() as f64 / 1e4;
        assert!((far - 0.2).abs() < 0.02, "far share {far}");
    }
}
