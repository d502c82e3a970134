//! The shared harness: run context, sample statistics, host and code
//! fingerprints, process probes, the exact-count guard, benchmark-owned
//! spans, and small file helpers.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use vs_bench::obs;
use vs_telemetry::fnv1a_64;
use vs_telemetry::json::{self, Json};

/// The end-to-end metrics every workload reports with tracing off, with
/// their units. `BENCHMARK.json` lists the same names; `--smoke` checks it.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("warm_p50_ms", "ms"),
    ("sim_cycles_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// How much work a run does: `Full` is the measured benchmark, `Tiny` the
/// smoke size (tiny profile, tiny grid, short request stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark proper.
    Full,
    /// A seconds-long pass that exercises every code path.
    Tiny,
}

impl Size {
    /// The name used on the command line and in record files.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// Everything a workload needs to know about the run it is part of.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The checkout root (the working directory).
    pub root: PathBuf,
    /// Persistent benchmark state: `target/perfbench` under the root.
    pub work: PathBuf,
    /// Per-process scratch space, removed when the run ends.
    pub scratch: PathBuf,
    /// The workload seed.
    pub seed: u64,
    /// The measurement budget, seconds.
    pub seconds: u64,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
    /// Full benchmark or smoke size.
    pub size: Size,
    /// Digest of the benchmarked source tree (see [`code_digest`]).
    pub code: String,
}

impl Ctx {
    /// How many operations an untraced run measures: the budget divided by
    /// the workload's nominal operation time, at least one. A fixed count
    /// (rather than "until the clock runs out") keeps every run of one seed
    /// doing identical work, which the exact-count guard relies on. The
    /// traced run always makes one untraced and one traced operation.
    pub fn ops(&self, nominal_op_s: f64) -> usize {
        if self.trace {
            return 2;
        }
        ((self.seconds as f64 / nominal_op_s).round() as usize).max(1)
    }

    /// Whether the golden artifacts apply: they were blessed at seed 42 at
    /// the full (golden) profile.
    pub fn goldens_apply(&self) -> bool {
        self.size == Size::Full && self.seed == 42
    }
}

/// Wall-time (or other) samples of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (mean of the middle pair for even counts); 0 when empty.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
        }
    }

    /// The largest sample; 0 when empty.
    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }

    /// The highest whole percentile (nearest rank) that still has at least
    /// ten samples beyond it, with its value: the tail worth quoting for
    /// this sample count. `None` below eleven samples.
    pub fn tail(&self) -> Option<(u32, f64)> {
        let v = self.sorted();
        let n = v.len();
        (50..=99u32).rev().find_map(|p| {
            let rank = ((f64::from(p) / 100.0) * n as f64).ceil() as usize;
            let idx = rank.max(1) - 1;
            (n - 1 - idx >= 10).then(|| (p, v[idx]))
        })
    }

    /// The detail-record form: median, quoted tail, and sample count.
    pub fn to_json(&self, unit: &str) -> Json {
        let mut pairs = vec![
            ("unit", Json::from(unit)),
            ("median", Json::from(self.median())),
            ("n", Json::from(self.0.len() as u64)),
        ];
        if let Some((p, v)) = self.tail() {
            pairs.push(("tail_pct", Json::from(u64::from(p))));
            pairs.push(("tail", Json::from(v)));
        }
        if self.0.len() <= 16 {
            pairs.push((
                "values",
                Json::Arr(self.0.iter().map(|&x| Json::from(x)).collect()),
            ));
        }
        Json::obj(pairs)
    }
}

/// What one run found: its checks, timings, exact counts, and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Timing samples for the detail record, by name.
    pub timings: BTreeMap<String, (&'static str, Samples)>,
    /// Exact counts per operation; every operation must agree.
    pub counts: BTreeMap<String, u64>,
    /// The metrics printed on the result line, in order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Counts one checked operation; records a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let line = what();
            eprintln!("[perfbench] FAIL {line}");
            self.failures.push(line);
        }
    }

    /// Records a timing sample under `name`.
    pub fn sample(&mut self, name: &str, unit: &'static str, x: f64) {
        self.timings
            .entry(name.to_string())
            .or_insert_with(|| (unit, Samples::default()))
            .1
            .push(x);
    }

    /// The samples recorded under `name` (empty when none were).
    pub fn samples(&self, name: &str) -> Samples {
        self.timings
            .get(name)
            .map(|(_, s)| s.clone())
            .unwrap_or_default()
    }

    /// Records an exact count for this operation. A count that differs from
    /// the one an earlier operation of the same run recorded is an error,
    /// not noise.
    pub fn count(&mut self, name: &str, value: u64) {
        match self.counts.get(name).copied() {
            Some(prev) => self.check(prev == value, || {
                format!("exact count {name} changed between operations: {prev} then {value}")
            }),
            None => {
                self.counts.insert(name.to_string(), value);
            }
        }
    }

    /// Sets a result-line metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Compares this run's exact counts with the counts an earlier run of the
/// same code, workload, size and seed stored, then stores the union. Any
/// difference is reported as a failure.
pub fn guard_counts(ctx: &Ctx, workload: &str, out: &mut Outcome) {
    let dir = ctx.work.join("counts").join(&ctx.code);
    let path = dir.join(format!(
        "{workload}-{}-seed{}.json",
        ctx.size.name(),
        ctx.seed
    ));
    let mut stored: BTreeMap<String, u64> = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(Json::Obj(pairs)) = json::parse(&text) {
            for (k, v) in pairs {
                if let Some(v) = v.as_u64() {
                    stored.insert(k, v);
                }
            }
        }
    }
    let counts = out.counts.clone();
    for (name, value) in &counts {
        if let Some(prev) = stored.get(name) {
            out.check(prev == value, || {
                format!("exact count {name} differs from an earlier run of this code and seed: {prev} then {value}")
            });
        } else {
            stored.insert(name.clone(), *value);
        }
    }
    let text =
        Json::obj(stored.iter().map(|(k, v)| (k.clone(), Json::from(*v)))).to_string_compact();
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = vs_telemetry::write_atomic(&path, text.as_bytes());
    }
}

/// Runs the idempotent set-up `f` `reps` times inside spans named `name`,
/// recording each as a `setup_s` sample, and returns the last result.
/// `setup_s` reports the median, which a single millisecond-scale sample
/// could not make steady.
pub fn setup<R>(
    out: &mut Outcome,
    reps: usize,
    name: &str,
    mut f: impl FnMut() -> io::Result<R>,
) -> io::Result<R> {
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (r, secs) = span(name, &[], &mut f);
        out.sample("setup_s", "s", secs);
        last = Some(r?);
    }
    Ok(last.expect("at least one set-up"))
}

/// Runs `f` inside a benchmark-owned span named `name` (category `bench`)
/// and returns its result with the wall seconds it took. The span lands in
/// the program's executor tracer, so it is recorded only while tracing is
/// on; the wall time is measured either way.
pub fn span<R>(name: &str, args: &[(&str, String)], f: impl FnOnce() -> R) -> (R, f64) {
    let started = obs::tracer().begin();
    let t0 = Instant::now();
    let r = f();
    let secs = t0.elapsed().as_secs_f64();
    obs::tracer().end_span(obs::worker_track(), "bench", name, started, args);
    (r, secs)
}

/// The host fingerprint every record carries: two records compare only when
/// these agree.
pub fn host_fingerprint(root: &Path) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = command_line("rustc", &["-V"], root).unwrap_or_else(|| "unknown".to_string());
    // Only ask git inside a repository: a plain checkout has no commit,
    // and git would otherwise report whatever repository encloses it.
    let git = root
        .join(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"], root))
        .flatten()
        .unwrap_or_else(|| "none".to_string());
    Json::obj([
        ("nproc", Json::from(nproc as u64)),
        ("cpu", Json::from(cpu)),
        ("rustc", Json::from(rustc)),
        ("git_commit", Json::from(git)),
    ])
}

/// The part of a host fingerprint that decides comparability (the commit
/// is recorded but is expected to differ between a baseline and a change).
pub fn comparable_host(host: &Json) -> String {
    ["nproc", "cpu", "rustc"]
        .iter()
        .map(|k| host.get(k).map(Json::to_string_compact).unwrap_or_default())
        .collect::<Vec<_>>()
        .join("|")
}

/// First line of a command's stdout, if it runs and succeeds.
fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    (!line.is_empty()).then_some(line)
}

/// A 16-hex digest of the source the benchmark measures: the manifests,
/// every file under `crates/`, and the benchmark's own `src/`.
/// It names the serve snapshot and the exact-count records, so any code
/// change starts both afresh.
pub fn code_digest(root: &Path) -> io::Result<String> {
    let mut files = Vec::new();
    for name in [
        "Cargo.toml",
        "Cargo.lock",
        "perfbench/Cargo.toml",
        "perfbench/Cargo.lock",
    ] {
        let p = root.join(name);
        if p.is_file() {
            files.push(p);
        }
    }
    collect_files(&root.join("crates"), &mut files)?;
    collect_files(&root.join("perfbench").join("src"), &mut files)?;
    files.sort();
    let mut text = Vec::new();
    for f in &files {
        text.extend_from_slice(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        text.push(0);
        text.extend_from_slice(&std::fs::read(f)?);
        text.push(0);
    }
    Ok(format!("{:016x}", fnv1a_64(&text)))
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            collect_files(&path, out)?;
        } else {
            out.push(path);
        }
    }
    Ok(())
}

/// Peak resident set size of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) this process has used so far.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks (100 per second
    // on Linux). The command name (field 2) may hold spaces, so count from
    // the closing parenthesis.
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|text| {
            let rest = &text[text.rfind(')')? + 2..];
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = fields.get(11)?.parse().ok()?;
            let stime: f64 = fields.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Seconds of CPU time the hypervisor has taken from this machine's virtual
/// CPUs so far (the `steal` column of `/proc/stat`, summed over CPUs); 0
/// where the kernel does not report it.
fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            let line = text.lines().next()?;
            let ticks: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
            Some(ticks / 100.0)
        })
        .unwrap_or(0.0)
}

/// A wall-clock stopwatch that also reads how much CPU time the hypervisor
/// took from this machine's virtual CPUs while it ran.
///
/// On a shared host that steal comes and goes over minutes and stretches
/// every wall time it overlaps: the benchmark's timed phases are therefore
/// reported net of it — wall time minus the stolen time per virtual CPU,
/// which is never more than the wall time itself — with the raw wall time
/// and the steal kept beside them in the record.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
    steal0: f64,
}

/// One stopwatch reading, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lap {
    /// Wall time as measured.
    pub wall: f64,
    /// CPU time stolen from all virtual CPUs meanwhile.
    pub stolen: f64,
    /// Wall time net of the steal per virtual CPU.
    pub net: f64,
}

impl Stopwatch {
    /// Starts timing.
    pub fn start() -> Stopwatch {
        Stopwatch {
            started: Instant::now(),
            steal0: steal_seconds(),
        }
    }

    /// The time since [`Stopwatch::start`].
    pub fn lap(&self) -> Lap {
        let wall = self.started.elapsed().as_secs_f64();
        let stolen = (steal_seconds() - self.steal0).max(0.0);
        let vcpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Lap {
            wall,
            stolen,
            net: (wall - stolen / vcpus as f64).max(0.0),
        }
    }
}

impl Outcome {
    /// Records a timed phase's lap: the net time under `name` (in `scale`
    /// units per second, with `unit`), the raw wall time and the steal
    /// under `name.raw` and `name.steal`.
    pub fn lap(&mut self, name: &str, unit: &'static str, scale: f64, lap: Lap) {
        self.sample(name, unit, lap.net * scale);
        self.sample(&format!("{name}.raw"), unit, lap.wall * scale);
        self.sample(&format!("{name}.steal"), "s", lap.stolen);
    }
}

/// Flushes the file system's dirty pages (`sync`, waited for), so that a
/// timed phase does not share the disk with the write-back of the phase
/// before it.
pub fn settle_writes() {
    let _ = Command::new("sync").status();
}

/// Removes `dir` if present and creates it empty.
pub fn fresh_dir(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    std::fs::create_dir_all(dir)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut files = Vec::new();
    if collect_files(dir, &mut files).is_err() {
        return 0;
    }
    files
        .iter()
        .filter_map(|f| f.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Copies the tree at `src` to `dst` (which must not exist yet).
pub fn copy_dir(src: &Path, dst: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}

/// SplitMix64: the benchmark's own input generator, so that the inputs a
/// seed produces never change when the program's RNGs do.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` in the named stream.
    pub fn new(seed: u64, stream: &str) -> Rng {
        Rng(seed ^ fnv1a_64(stream.as_bytes()))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s = Samples((1..=10).map(f64::from).collect());
        assert_eq!(s.tail(), None);
        let s = Samples((1..=100).map(f64::from).collect());
        assert_eq!(s.tail(), Some((90, 90.0)));
        let s = Samples((1..=1000).map(f64::from).collect());
        assert_eq!(s.tail(), Some((99, 990.0)));
        assert_eq!(s.median(), 500.5);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, "x");
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, "x");
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(8, "x");
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
