//! The benchmark's workloads: set-up, timed repeats, output checks and
//! the metrics derived from them.

use crate::calib::{Probe, Samples};
use crate::layers;
use crate::spans::Tracer;
use gsim_bench::Panel;
use gsim_core::{Simulator, SystemConfig, Workload};
use gsim_harness::pool::run_parallel_meta;
use gsim_harness::{cell_key, matrix_of, run_cell, run_cells, Cell, ResultCache};
use gsim_types::{JsonValue, ProtocolConfig, SimStats};
use gsim_workloads::{registry, Scale};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups before each repeat, at least, and the host seconds they run
/// for, at least; the last one's workloads run the repeat. `setup_s`
/// is the mean over all of a run's set-ups, which are spread over the
/// run like its repeats. A set-up takes from tens of microseconds (the
/// sync microbenchmarks) to tens of milliseconds, so a fixed count
/// would leave the short ones at the timer's noise.
const SETUP_BATCH: usize = 2;
const SETUP_BATCH_SECONDS: f64 = 0.3;

/// Timed repeats of the workload per run, at least (two are needed to
/// check that repeats agree).
const MIN_REPEATS: usize = 2;

/// Host seconds of untimed warm-up before the first repeat: the cells
/// run in order through `Simulator::run` until this is spent (at least
/// one), and are checked like the others. The first cell in a process
/// runs up to a third slower than it does later.
const WARM_UP_SECONDS: f64 = 2.0;

/// One Figure 2-4 quantity, as the paper's bars normalize it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FigMetric {
    Time,
    Energy,
    Traffic,
}

impl FigMetric {
    fn of(self, s: &SimStats) -> f64 {
        match self {
            FigMetric::Time => s.cycles as f64,
            FigMetric::Energy => s.energy.total_pj(),
            FigMetric::Traffic => s.traffic.total() as f64,
        }
    }
}

/// One averaged bar of a paper figure: `config`'s `metric` as a
/// percentage of the baseline's, averaged over the figure's benchmarks.
#[derive(Debug)]
pub struct PaperItem {
    pub config: ProtocolConfig,
    pub metric: FigMetric,
    pub paper_pct: f64,
}

/// A workload as recorded in `reference.json`.
#[derive(Debug)]
pub struct WorkloadSpec {
    pub name: String,
    pub benches: Vec<String>,
    pub configs: Vec<ProtocolConfig>,
    pub threads: usize,
    /// Run through a fresh result cache (cold), then again warm.
    pub cached: bool,
    pub paper_baseline: ProtocolConfig,
    pub paper_items: Vec<PaperItem>,
}

impl WorkloadSpec {
    /// The column of `config` in the workload's figure panels.
    fn column(&self, config: ProtocolConfig) -> Option<usize> {
        self.configs.iter().position(|&c| c == config)
    }
}

/// `reference.json`, compiled in.
pub struct Reference {
    workloads: Vec<WorkloadSpec>,
    /// `(bench/config, digest)` of every cell's `SimStats`.
    digests: Vec<(String, String)>,
}

fn config_of(abbrev: &str) -> ProtocolConfig {
    ProtocolConfig::ALL
        .into_iter()
        .find(|c| c.abbrev() == abbrev)
        .unwrap_or_else(|| panic!("reference.json names unknown config {abbrev:?}"))
}

fn strs(v: &JsonValue, key: &str) -> Vec<String> {
    v.get(key)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("reference.json: {key} must be an array"))
        .iter()
        .map(|s| s.as_str().expect("array of strings").to_string())
        .collect()
}

impl Reference {
    pub fn load() -> Reference {
        Reference::parse(include_str!("../reference.json"))
    }

    fn parse(text: &str) -> Reference {
        let root = JsonValue::parse(text).expect("reference.json parses");
        let workloads = root
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .expect("reference.json: workloads array")
            .iter()
            .map(|w| {
                let field = |k: &str| w.get(k).unwrap_or_else(|| panic!("workload lacks {k}"));
                let paper = field("paper");
                WorkloadSpec {
                    name: field("name").as_str().expect("name").to_string(),
                    benches: strs(w, "benches"),
                    configs: strs(w, "configs").iter().map(|c| config_of(c)).collect(),
                    threads: field("threads").as_u64().expect("threads") as usize,
                    cached: field("cache").as_str() == Some("cold_then_warm"),
                    paper_baseline: config_of(
                        paper
                            .get("baseline")
                            .and_then(JsonValue::as_str)
                            .expect("baseline"),
                    ),
                    paper_items: paper
                        .get("items")
                        .and_then(JsonValue::as_arr)
                        .expect("paper items")
                        .iter()
                        .map(|it| PaperItem {
                            config: config_of(
                                it.get("config")
                                    .and_then(JsonValue::as_str)
                                    .expect("config"),
                            ),
                            metric: match it.get("metric").and_then(JsonValue::as_str) {
                                Some("time") => FigMetric::Time,
                                Some("energy") => FigMetric::Energy,
                                Some("traffic") => FigMetric::Traffic,
                                m => panic!("unknown paper metric {m:?}"),
                            },
                            paper_pct: it
                                .get("paper_pct")
                                .and_then(JsonValue::as_f64)
                                .expect("paper_pct"),
                        })
                        .collect(),
                }
            })
            .collect();
        let digests = match root.get("digests") {
            Some(JsonValue::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| (k.clone(), v.as_str().expect("digest string").to_string()))
                .collect(),
            _ => panic!("reference.json: digests object"),
        };
        Reference { workloads, digests }
    }

    pub fn workload(&self, name: &str) -> Option<&WorkloadSpec> {
        self.workloads.iter().find(|w| w.name == name)
    }

    pub fn workload_names(&self) -> Vec<&str> {
        self.workloads.iter().map(|w| w.name.as_str()).collect()
    }

    fn digest_of(&self, cell: &str) -> Option<&str> {
        self.digests
            .iter()
            .find(|(k, _)| k == cell)
            .map(|(_, v)| v.as_str())
    }
}

/// The digest of a cell's statistics: FNV-1a 64 over their exact,
/// stable JSON serialization (the bytes the result cache stores).
pub fn digest(stats: &SimStats) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in stats.to_json().bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn cell_name(cell: &Cell) -> String {
    format!("{}/{}", cell.bench, cell.config.abbrev())
}

pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Working directory for result caches; removed by the caller.
    pub work_dir: PathBuf,
}

/// `(name, value, unit)` of reported metrics.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

pub struct RunOutput {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

/// One timed pass over the workload's cells.
struct Repeat {
    wall_s: f64,
    /// The pool's busy window (the cold pass, for cached workloads).
    pool_wall_s: f64,
    /// Workers the pool actually ran.
    workers: usize,
    traced: bool,
    cell_s: Vec<f64>,
    stats: Vec<Result<SimStats, String>>,
    /// The warm pass's results, for cached workloads.
    warm: Option<Vec<Result<(SimStats, bool), String>>>,
}

/// Counts failed attempts: an error, a digest that differs from the
/// reference, or statistics that differ from the cell's first repeat.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    /// Checks one attempt at `cell`; `first` is the cell's first
    /// successful result in this run, if any.
    pub fn check(
        &mut self,
        cell: &str,
        result: &Result<SimStats, String>,
        first: Option<&SimStats>,
        reference: Option<&str>,
    ) {
        self.attempted += 1;
        let problem = match result {
            Err(e) => Some(e.clone()),
            Ok(s) if first.is_some_and(|f| f != s) => {
                Some("statistics differ between repeats".to_string())
            }
            Ok(s) => {
                let d = digest(s);
                match reference {
                    Some(r) if r == d => None,
                    Some(r) => Some(format!("digest {d} differs from the reference {r}")),
                    None => Some(format!("digest {d} has no reference")),
                }
            }
        };
        if let Some(p) = problem {
            self.failed += 1;
            eprintln!("perfbench: FAILED {cell}: {p}");
        }
    }
}

fn mean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "mean of nothing");
    v.iter().sum::<f64>() / v.len() as f64
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The workload's cells in figure order: benches in the figure's
/// order, each under every config.
fn cells_of(spec: &WorkloadSpec) -> Vec<Cell> {
    let benches: Vec<&str> = spec.benches.iter().map(String::as_str).collect();
    matrix_of(&benches, &spec.configs, Scale::Paper)
}

fn build(cell: &Cell) -> Workload {
    let b = registry::by_name(&cell.bench)
        .unwrap_or_else(|| panic!("reference.json names unknown bench {:?}", cell.bench));
    (b.build)(cell.scale)
}

/// Builds every cell's workload (and, for cached workloads, opens a
/// cache and computes every cell key); returns the workloads, the
/// set-up's host seconds and the part of them spent building workloads.
fn set_up(
    spec: &WorkloadSpec,
    cells: &[Cell],
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<(Vec<Workload>, f64, f64), String> {
    let start = Instant::now();
    let mut workloads = Vec::with_capacity(cells.len());
    let mut build_s = 0.0;
    for cell in cells {
        let (w, dt) = tracer.timed("workloads.build", || build(cell));
        workloads.push(w);
        build_s += dt;
    }
    if spec.cached {
        let (cache, _) = tracer.timed("harness.cache.open", || ResultCache::open(dir));
        cache.map_err(|e| format!("opening a cache in {}: {e}", dir.display()))?;
        for cell in cells {
            tracer.timed("harness.key", || cell_key(cell)).0?;
        }
    }
    Ok((workloads, start.elapsed().as_secs_f64(), build_s))
}

/// One pass over the workload's cells, with the host probed after each
/// cell (sequential workloads) or after the pass (pooled ones).
fn run_repeat(
    spec: &WorkloadSpec,
    cells: &[Cell],
    workloads: &[Workload],
    dir: &Path,
    tracer: &mut Tracer,
    probe: &Probe,
    speed: &mut Samples,
) -> Result<Repeat, String> {
    let traced = tracer.on;
    if !spec.cached {
        let mut cell_s = Vec::with_capacity(cells.len());
        let mut stats = Vec::with_capacity(cells.len());
        for (cell, w) in cells.iter().zip(workloads) {
            let (r, dt) = tracer.timed("core.sim", || {
                Simulator::new(SystemConfig::micro15(cell.config))
                    .run(w)
                    .map_err(|e| e.to_string())
            });
            probe.after(dt, speed);
            cell_s.push(dt);
            stats.push(r);
        }
        let wall_s = cell_s.iter().sum();
        return Ok(Repeat {
            wall_s,
            pool_wall_s: wall_s,
            workers: 1,
            traced,
            cell_s,
            stats,
            warm: None,
        });
    }

    let cache =
        ResultCache::open(dir).map_err(|e| format!("opening a cache in {}: {e}", dir.display()))?;
    let start = Instant::now();
    let (cold, pool) = run_parallel_meta(cells, spec.threads, |cell| {
        let t0 = Instant::now();
        let r = run_cell(cell, Some(&cache)).map(|c| c.stats);
        (r, t0, Instant::now())
    });
    let pool_wall_s = start.elapsed().as_secs_f64();
    let (warm, _) = tracer.timed("harness.warm", || {
        run_cells(cells, spec.threads, Some(&cache))
    });
    let wall_s = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(dir);
    probe.after(wall_s, speed);

    let mut cell_s = Vec::with_capacity(cells.len());
    let mut stats = Vec::with_capacity(cells.len());
    for (r, t0, t1) in cold {
        tracer.push("harness.run_cell", t0, t1);
        cell_s.push((t1 - t0).as_secs_f64());
        stats.push(r);
    }
    let warm = match warm {
        Ok(results) => results
            .into_iter()
            .map(|c| Ok((c.stats, c.from_cache)))
            .collect(),
        Err(e) => cells.iter().map(|_| Err(e.clone())).collect(),
    };
    Ok(Repeat {
        wall_s,
        pool_wall_s,
        workers: pool.effective,
        traced,
        cell_s,
        stats,
        warm: Some(warm),
    })
}

/// The figure's panel of `metric` over the workload's cells, built as
/// the figure code builds it; `None` if a needed cell failed.
fn panel(
    spec: &WorkloadSpec,
    metric: FigMetric,
    stats_of: &dyn Fn(&str, ProtocolConfig) -> Option<SimStats>,
) -> Option<Panel> {
    let rows = spec
        .benches
        .iter()
        .map(|b| {
            let values = spec
                .configs
                .iter()
                .map(|&c| stats_of(b, c).map(|s| metric.of(&s)))
                .collect::<Option<Vec<f64>>>()?;
            Some((b.clone(), values))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(Panel {
        title: format!("{} {metric:?}", spec.name),
        configs: spec
            .configs
            .iter()
            .map(|c| c.abbrev().to_string())
            .collect(),
        rows,
        baseline: spec.column(spec.paper_baseline)?,
    })
}

pub fn run(
    spec: &WorkloadSpec,
    reference: &Reference,
    opts: &RunOptions,
) -> Result<RunOutput, String> {
    let cells = cells_of(spec);
    let mut tracer = Tracer::new(opts.trace);

    let probe = Probe::new();
    let mut speed = Samples::default();

    let run_start = Instant::now();
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut warm_up: Vec<Result<SimStats, String>> = Vec::new();
    let mut repeats: Vec<Repeat> = Vec::new();
    // Set-ups and repeats alternate until `--seconds` is spent.
    let mut started = None;
    loop {
        let batch_start = Instant::now();
        let mut workloads = Vec::new();
        for n in 0.. {
            if n >= SETUP_BATCH && batch_start.elapsed().as_secs_f64() >= SETUP_BATCH_SECONDS {
                break;
            }
            let dir = opts.work_dir.join(format!("setup-{}", setups.len()));
            // Drop the previous set first, so every set-up starts from
            // the same allocator state (else set-ups alternate fast and
            // slow).
            workloads.clear();
            let (w, secs, build_s) = set_up(spec, &cells, &dir, &mut tracer)?;
            let _ = std::fs::remove_dir_all(&dir);
            setups.push(secs);
            builds.push(build_s);
            workloads = w;
        }
        probe.after(batch_start.elapsed().as_secs_f64(), &mut speed);

        if warm_up.is_empty() {
            let start = Instant::now();
            for (cell, w) in cells.iter().zip(&workloads) {
                warm_up.push(
                    Simulator::new(SystemConfig::micro15(cell.config))
                        .run(w)
                        .map_err(|e| e.to_string()),
                );
                if start.elapsed().as_secs_f64() >= WARM_UP_SECONDS {
                    break;
                }
            }
            eprintln!(
                "perfbench: warm-up: {} cells, {:.4} host s",
                warm_up.len(),
                start.elapsed().as_secs_f64()
            );
        }

        let started = *started.get_or_insert_with(Instant::now);
        let k = repeats.len();
        // A traced run alternates recorded and unrecorded repeats, so
        // it can report what recording costs.
        tracer.on = opts.trace && k.is_multiple_of(2);
        let dir = opts.work_dir.join(format!("repeat-{k}"));
        let rep = run_repeat(
            spec,
            &cells,
            &workloads,
            &dir,
            &mut tracer,
            &probe,
            &mut speed,
        )?;
        eprintln!("perfbench: repeat {k}: {:.4} host s", rep.wall_s);
        repeats.push(rep);
        let per_repeat = started.elapsed().as_secs_f64() / repeats.len() as f64;
        if repeats.len() >= MIN_REPEATS
            && run_start.elapsed().as_secs_f64() + per_repeat > opts.seconds
        {
            break;
        }
    }
    tracer.on = opts.trace;

    let names: Vec<String> = cells.iter().map(cell_name).collect();
    let mut checker = Checker::default();
    let mut first: Vec<Option<SimStats>> = vec![None; cells.len()];
    for (i, r) in warm_up.iter().enumerate() {
        checker.check(&names[i], r, None, reference.digest_of(&names[i]));
        first[i] = r.as_ref().ok().copied();
    }
    for rep in &repeats {
        for (i, r) in rep.stats.iter().enumerate() {
            checker.check(
                &names[i],
                r,
                first[i].as_ref(),
                reference.digest_of(&names[i]),
            );
            first[i] = first[i].or(r.as_ref().ok().copied());
        }
        for (i, w) in rep.warm.iter().flatten().enumerate() {
            let r = match w {
                Ok((_, false)) => Err("warm pass missed the cache".to_string()),
                Ok((s, true)) => Ok(*s),
                Err(e) => Err(e.clone()),
            };
            checker.check(
                &names[i],
                &r,
                first[i].as_ref(),
                reference.digest_of(&names[i]),
            );
        }
    }
    // Cells with a successful result, for the metrics built on SimStats.
    let ok: Vec<(&Cell, SimStats)> = cells
        .iter()
        .zip(&first)
        .filter_map(|(c, s)| s.map(|s| (c, s)))
        .collect();

    let mut metrics = if opts.trace {
        per_layer(spec, &repeats, &ok, &builds, opts, &mut tracer)?
    } else {
        end_to_end(spec, &names, &repeats, &ok, &setups, speed.to_reference())
    };
    if let Some((name, v, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        if checker.failed == 0 {
            return Err(format!("metric {name} is {v}"));
        }
    }
    // A failed cell leaves some metrics without a value; the run still
    // reports its failure count.
    metrics.retain(|(_, v, _)| v.is_finite());
    eprintln!(
        "perfbench: {} set-ups; {} cells x {} repeats; {:.1} s in all",
        setups.len(),
        cells.len(),
        repeats.len(),
        run_start.elapsed().as_secs_f64()
    );
    if opts.trace {
        eprintln!("perfbench: {} spans recorded", tracer.recorded());
    }
    Ok(RunOutput {
        metrics,
        attempted: checker.attempted,
        failed: checker.failed,
    })
}

/// The `--trace 0` metrics: means over the run's repeats and set-ups,
/// in seconds at the host probe's reference speed (host seconds times
/// `to_reference`). Means, not medians: the host moves between faster
/// and slower phases, and a median of a few repeats jumps with a phase.
fn end_to_end(
    spec: &WorkloadSpec,
    names: &[String],
    repeats: &[Repeat],
    ok: &[(&Cell, SimStats)],
    setups: &[f64],
    to_reference: f64,
) -> Metrics {
    let host_wall_s = mean(&repeats.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    eprintln!("perfbench: {host_wall_s:.4} host s per repeat; host speed factor {to_reference:.4}");
    let wall_s = host_wall_s * to_reference;
    let per_cell: Vec<f64> = (0..names.len())
        .map(|i| mean(&repeats.iter().map(|r| r.cell_s[i]).collect::<Vec<_>>()) * to_reference)
        .collect();
    for (name, t) in names.iter().zip(&per_cell) {
        eprintln!("perfbench: cell {name}: {t:.4} s");
    }
    let instructions: u64 = ok.iter().map(|(_, s)| s.counts.instructions).sum();
    let stats_of = |bench: &str, config: ProtocolConfig| {
        ok.iter()
            .find(|(c, _)| c.bench == bench && c.config == config)
            .map(|(_, s)| *s)
    };
    let errs: Option<Vec<f64>> = spec
        .paper_items
        .iter()
        .map(|it| {
            let avg = panel(spec, it.metric, &stats_of)?.average(spec.column(it.config)?);
            eprintln!(
                "perfbench: {} {:?} {avg:.2}% of {} (paper {}%)",
                it.config.abbrev(),
                it.metric,
                spec.paper_baseline.abbrev(),
                it.paper_pct
            );
            Some((avg - it.paper_pct).abs())
        })
        .collect();
    vec![
        ("wall_s", wall_s, "s"),
        ("sim_instr_per_s", instructions as f64 / wall_s, "1/s"),
        ("cell_s.p50", median(&per_cell), "s"),
        (
            "cell_s.max",
            per_cell.iter().copied().fold(0.0, f64::max),
            "s",
        ),
        ("setup_s", mean(setups) * to_reference, "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        (
            "paper_err_pp",
            errs.map_or(f64::NAN, |e| e.iter().sum::<f64>() / e.len() as f64),
            "pp",
        ),
    ]
}

/// The `--trace 1` metrics: host times of the benchmark's calls into
/// each layer, work counts from `SimStats`, and the layer probes' ns/op.
fn per_layer(
    spec: &WorkloadSpec,
    repeats: &[Repeat],
    ok: &[(&Cell, SimStats)],
    builds: &[f64],
    opts: &RunOptions,
    tracer: &mut Tracer,
) -> Result<Metrics, String> {
    // Per recorded repeat: the cells' host seconds (Simulator::run, or
    // run_cell on the pool) against the pool's window.
    let traced: Vec<&Repeat> = repeats.iter().filter(|r| r.traced).collect();
    let over_traced =
        |f: &dyn Fn(&Repeat) -> f64| median(&traced.iter().map(|r| f(r)).collect::<Vec<_>>());
    let run_s = over_traced(&|r| r.cell_s.iter().sum());
    let busy = over_traced(&|r| r.cell_s.iter().sum::<f64>() / (r.workers as f64 * r.pool_wall_s));
    let critical = over_traced(&|r| r.cell_s.iter().copied().fold(0.0, f64::max));
    let untraced: Vec<f64> = repeats
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.wall_s)
        .collect();
    let overhead = if untraced.is_empty() {
        f64::NAN
    } else {
        over_traced(&|r| r.wall_s) / median(&untraced) - 1.0
    };

    // The harness cache, driven with this workload's cells and results:
    // keys, a put and a get of every result in a fresh cache, then the
    // harness's own warm pass over it.
    let dir = opts.work_dir.join("cache-probe");
    let cache = ResultCache::open(&dir)
        .map_err(|e| format!("opening a cache in {}: {e}", dir.display()))?;
    let (mut key_s, mut put_s, mut get_s) = (0.0, 0.0, 0.0);
    let mut keys = Vec::with_capacity(ok.len());
    for (cell, _) in ok {
        let (key, dt) = tracer.timed("harness.key", || cell_key(cell));
        keys.push(key?);
        key_s += dt;
    }
    for (key, (_, stats)) in keys.iter().zip(ok) {
        put_s += tracer
            .timed("harness.cache.put", || cache.put(key, stats))
            .1;
    }
    for key in &keys {
        let (got, dt) = tracer.timed("harness.cache.get", || cache.get(key));
        got.ok_or("the cache probe missed a result it just stored")?;
        get_s += dt;
    }
    let ok_cells: Vec<Cell> = ok.iter().map(|(c, _)| (*c).clone()).collect();
    let (hits0, misses0) = (cache.hits(), cache.misses());
    let (warm, warm_s) = tracer.timed("harness.warm", || {
        run_cells(&ok_cells, spec.threads, Some(&cache))
    });
    warm?;
    let _ = std::fs::remove_dir_all(&dir);
    let (hits, misses) = (cache.hits() - hits0, cache.misses() - misses0);

    let mut c = gsim_types::Counts::default();
    for (_, s) in ok {
        c += s.counts;
    }
    let cycles: u64 = ok.iter().map(|(_, s)| s.cycles).sum();
    let by_config: Vec<(ProtocolConfig, SimStats)> =
        ok.iter().map(|(c, s)| (c.config, *s)).collect();
    let shape = layers::Shape::of(&by_config);
    let costs = layers::measure(&shape, opts.seed, tracer);
    let explained_ns: f64 = by_config
        .iter()
        .map(|(config, s)| costs.explain_ns(*config, &s.counts))
        .sum();
    let per_instr = |n: u64| n as f64 / c.instructions as f64;

    let mut m: Metrics = vec![
        ("workloads.build_s", median(builds), "s"),
        ("core.run_s", run_s, "s"),
        (
            "core.ns_per_instr",
            run_s * 1e9 / c.instructions as f64,
            "ns",
        ),
        ("harness.key_s", key_s, "s"),
        ("harness.cache.put_s", put_s, "s"),
        ("harness.cache.get_s", get_s, "s"),
        (
            "harness.cache.hit_ratio",
            hits as f64 / (hits + misses) as f64,
            "ratio",
        ),
        ("harness.warm_s", warm_s, "s"),
        ("harness.pool.busy_frac", busy, "ratio"),
        ("harness.pool.critical_s", critical, "s"),
        ("core.kernel.instructions", c.instructions as f64, "count"),
        ("core.sim_cycles", cycles as f64, "count"),
        ("protocol.l1.accesses", c.l1_accesses as f64, "count"),
        (
            "protocol.l1.load_hit_ratio",
            c.l1_load_hits as f64 / (c.l1_load_hits + c.l1_load_misses) as f64,
            "ratio",
        ),
        ("protocol.l2.accesses", c.l2_accesses as f64, "count"),
        ("protocol.l2.atomics", c.l2_atomics as f64, "count"),
        (
            "protocol.denovo.registrations",
            c.registrations as f64,
            "count",
        ),
        (
            "protocol.denovo.reg_forwards",
            c.reg_forwards as f64,
            "count",
        ),
        (
            "protocol.words_invalidated",
            c.words_invalidated as f64,
            "count",
        ),
        (
            "mem.dram_accesses",
            (c.dram_reads + c.dram_writes) as f64,
            "count",
        ),
        (
            "mem.sb_flushes",
            (c.sb_overflow_flushes + c.sb_release_flushes) as f64,
            "count",
        ),
        ("noc.messages", c.messages_sent as f64, "count"),
        ("noc.flit_hops", c.flit_hops as f64, "count"),
        ("noc.msgs_per_instr", per_instr(c.messages_sent), "ratio"),
        (
            "protocol.l1.accesses_per_instr",
            per_instr(c.l1_accesses),
            "ratio",
        ),
    ];
    m.extend(costs.named().map(|(name, ns)| (name, ns, "ns")));
    m.extend([
        ("core.equeue.overflow_frac", shape.overflow_frac(), "ratio"),
        ("layers.explained_frac", explained_ns / 1e9 / run_s, "ratio"),
        ("trace_overhead_frac", overhead, "ratio"),
    ]);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(cycles: u64) -> SimStats {
        SimStats {
            cycles,
            ..SimStats::default()
        }
    }

    #[test]
    fn reference_covers_every_workload_cell() {
        let r = Reference::load();
        assert_eq!(
            r.workload_names(),
            ["nosync_apps", "global_sync", "local_sync_regen"]
        );
        for w in &r.workloads {
            for cell in cells_of(w) {
                assert!(
                    r.digest_of(&cell_name(&cell)).is_some(),
                    "no digest for {}",
                    cell_name(&cell)
                );
            }
        }
    }

    #[test]
    fn changed_digest_is_counted() {
        let good = stats(10);
        let mut c = Checker::default();
        c.check("X/GD", &Ok(good), None, Some(&digest(&good)));
        assert_eq!((c.attempted, c.failed), (1, 0));
        // A speed-up that moved one statistic is a failure.
        c.check("X/GD", &Ok(stats(11)), None, Some(&digest(&good)));
        assert_eq!((c.attempted, c.failed), (2, 1));
        // So is a cell without a recorded reference.
        c.check("X/GD", &Ok(good), None, None);
        assert_eq!((c.attempted, c.failed), (3, 2));
        // And a repeat that disagrees with the first.
        c.check("X/GD", &Ok(good), Some(&stats(12)), Some(&digest(&good)));
        assert_eq!((c.attempted, c.failed), (4, 3));
    }

    #[test]
    fn failing_verifier_is_counted() {
        use gsim_core::kernel::KernelBuilder;
        use gsim_core::{KernelLaunch, TbSpec};
        let mut b = KernelBuilder::new();
        b.halt();
        let w = Workload {
            name: "broken".into(),
            init: Box::new(|_| {}),
            kernels: vec![KernelLaunch {
                program: b.build(),
                tbs: vec![TbSpec::with_regs(&[])],
            }],
            verify: Box::new(|_| Err("wrong answer".into())),
        };
        let r = Simulator::new(SystemConfig::micro15(ProtocolConfig::Gd))
            .run(&w)
            .map_err(|e| e.to_string());
        assert!(r.is_err());
        let mut c = Checker::default();
        c.check("broken/GD", &r, None, None);
        assert_eq!((c.attempted, c.failed), (1, 1));
    }
}
