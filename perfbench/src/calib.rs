//! A host-speed probe interleaved with the workload.
//!
//! The benchmark runs on shared hosts whose speed moves by a fifth and
//! more in phases of tens of seconds, while the process stays on-CPU
//! throughout: a neighbour contends for the core. After every cell (or
//! pooled pass) and every batch of set-ups, the benchmark runs this
//! fixed probe for a set share of the time the work took, so the probe
//! samples the host evenly over the whole run. The run's host
//! seconds are then scaled by `PROBE_REF_MS / median quantum`: they read
//! as seconds on a host where one probe quantum takes `PROBE_REF_MS`.
//! The probe is the benchmark's own code, never the simulator's, so a
//! change to the simulator cannot move it.
//!
//! A quantum is a branchy bytecode interpreter over a small register
//! file and an L1-sized table, like the simulator's kernel-IR
//! interpreter. Over four-minute runs it tracked the simulator's
//! per-repeat host time with a log correlation of about 0.7 (slope
//! 0.75-0.9), at least as well as each memory-bound kernel tried
//! (pointer chases over 256 KiB and 8 MiB, a hash table, a copy:
//! 0.55-0.69), and unlike the 8 MiB chase it runs at the same speed in
//! every process. One factor serves the whole run: per repeat or per cell,
//! the probe's own noise cancels what it gains.

use std::hint::black_box;
use std::time::Instant;

/// The probe quantum's duration on the reference host, in ms: about
/// the median on an otherwise idle 2-vCPU Xeon VM at 2.0 GHz.
pub const PROBE_REF_MS: f64 = 2.5;

/// Probe time per second of work.
pub const PROBE_SHARE: f64 = 0.06;

/// Interpreter steps per quantum.
const STEPS: usize = 200_000;

/// Bytecode length of the probe's program.
const PROG_LEN: usize = 4096;

/// `u32` words of the table the program loads from: 64 KiB.
const TABLE_WORDS: usize = 1 << 14;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// The probe's fixed program and table, from a fixed seed.
pub struct Probe {
    prog: Vec<u8>,
    table: Vec<u32>,
}

impl Probe {
    pub fn new() -> Probe {
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        let prog = (0..PROG_LEN)
            .map(|_| (xorshift(&mut s) % 8) as u8)
            .collect();
        let table = (0..TABLE_WORDS).map(|_| xorshift(&mut s) as u32).collect();
        Probe { prog, table }
    }

    /// One quantum of fixed work; returns a value that depends on all of
    /// it, so none can be optimized away.
    fn quantum(&self) -> u64 {
        let mut r = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let mut pc = 0usize;
        for _ in 0..STEPS {
            let (a, b) = (pc & 7, (pc >> 3) & 7);
            match self.prog[pc] {
                0 => r[a] = r[a].wrapping_add(r[b]),
                1 => r[a] = r[a].wrapping_mul(r[b] | 1),
                2 => r[a] ^= r[b] >> 3,
                3 => {
                    if r[a] & 1 == 0 {
                        pc = (pc + 17) % PROG_LEN;
                    }
                }
                4 => r[a] = r[a].rotate_left(5),
                5 => r[b] = r[a].wrapping_sub(r[b]),
                6 => r[a] = self.table[r[b] as usize % TABLE_WORDS] as u64,
                _ => r[a] = r[a].wrapping_add(1),
            }
            pc = (pc + 1) % PROG_LEN;
        }
        r.iter().sum()
    }

    /// Probes the host after `work_s` seconds of work: quanta for
    /// `PROBE_SHARE` of that time, at least one.
    pub fn after(&self, work_s: f64, into: &mut Samples) {
        let start = Instant::now();
        loop {
            let t0 = Instant::now();
            black_box(self.quantum());
            into.0.push(t0.elapsed().as_secs_f64() * 1e3);
            if start.elapsed().as_secs_f64() >= work_s * PROBE_SHARE {
                return;
            }
        }
    }
}

/// Probe quanta taken over a run, in ms.
#[derive(Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// The factor that turns host seconds measured over the run into
    /// seconds at the reference speed.
    pub fn to_reference(&self) -> f64 {
        PROBE_REF_MS / crate::suite::median(&self.0)
    }
}
