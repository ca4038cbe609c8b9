//! Timing samples, per-layer accumulators, the host stamp and the result
//! line.

use crate::adapter as dco;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

/// Latency samples in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q`-quantile by nearest rank; 0 with no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    /// How many samples exceed `ms`.
    pub fn count_over(&self, ms: f64) -> usize {
        self.0.iter().filter(|&&v| v > ms).count()
    }

    /// The mean; 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }
}

/// The median of a list (which must not be empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sums and counts per per-layer metric; a metric's value is its mean
/// per call (or per operation, for counts).
#[derive(Debug, Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, (f64, u64)>,
    /// Per operation kind: (sum of layer times, sum of in-process totals,
    /// operations, operations under the threshold).
    recon: BTreeMap<&'static str, (f64, f64, u64, u64)>,
}

/// Per-layer metrics of the probe sites, in `dco::PROBES` order.
const PROBE_METRICS: [&str; 4] = [
    "core.probe.dnf_insert",
    "core.probe.quantifier_elim",
    "core.probe.cell_split",
    "core.probe.fixpoint_stage",
];

/// The share of an operation's in-process time its layer calls must
/// cover.
pub const RECONCILE_MIN: f64 = 0.9;

impl Layers {
    /// Add one observation to `metric`.
    pub fn add(&mut self, metric: &'static str, v: f64) {
        let e = self.sums.entry(metric).or_insert((0.0, 0));
        e.0 += v;
        e.1 += 1;
    }

    /// Add a duration, in microseconds.
    pub fn add_us(&mut self, metric: &'static str, d: Duration) {
        self.add(metric, d.as_secs_f64() * 1e6);
    }

    /// Set `metric` to exactly `v`.
    pub fn set(&mut self, metric: &'static str, v: f64) {
        self.sums.insert(metric, (v, 1));
    }

    /// Fold another accumulator into this one.
    pub fn merge(&mut self, other: Layers) {
        for (k, (s, n)) in other.sums {
            let e = self.sums.entry(k).or_insert((0.0, 0));
            e.0 += s;
            e.1 += n;
        }
        for (k, (a, b, n, u)) in other.recon {
            let e = self.recon.entry(k).or_insert((0.0, 0.0, 0, 0));
            e.0 += a;
            e.1 += b;
            e.2 += n;
            e.3 += u;
        }
    }

    /// The mean of `metric`; 0 when the layer did no work.
    pub fn mean(&self, metric: &str) -> f64 {
        match self.sums.get(metric) {
            Some(&(s, n)) if n > 0 => s / n as f64,
            _ => 0.0,
        }
    }

    /// The sum of `metric`.
    pub fn sum(&self, metric: &str) -> f64 {
        self.sums.get(metric).map_or(0.0, |e| e.0)
    }

    /// Add one guarded evaluation's kernel counters.
    pub fn record_eval(&mut self, out: &dco::Evaluated, probes: [u64; 4]) {
        let s = &out.stats;
        self.add("core.tuples_materialized", s.tuples_materialized as f64);
        self.add("core.atoms_materialized", s.atoms_materialized as f64);
        self.add("core.result_tuples", dco::tuples(&out.relation) as f64);
        for (i, site) in dco::PROBES.iter().enumerate() {
            self.add(PROBE_METRICS[i], probes[i] as f64);
            debug_assert!(PROBE_METRICS[i].ends_with(site));
        }
    }

    /// Ratios over a traced phase: satisfiability-cache hits since
    /// `sat0`, and result tuples per tuple materialized.
    pub fn finish_kernel(&mut self, sat0: (u64, u64)) {
        let (h1, m1) = dco::sat_cache_counts();
        let (h, m) = ((h1 - sat0.0) as f64, (m1 - sat0.1) as f64);
        self.set(
            "core.sat_cache.hit_ratio",
            if h + m > 0.0 { h / (h + m) } else { 0.0 },
        );
        self.set("core.sat_cache.probes", h + m);
        let made = self.sum("core.tuples_materialized");
        let useful = self.sum("core.result_tuples");
        self.set(
            "core.useful_ratio",
            if made > 0.0 { useful / made } else { 0.0 },
        );
    }

    /// Record one traced operation: the time its timed layer calls
    /// took, and the in-process total around them.
    pub fn reconcile(&mut self, kind: &'static str, layers: Duration, total: Duration) {
        let e = self.recon.entry(kind).or_insert((0.0, 0.0, 0, 0));
        e.0 += layers.as_secs_f64();
        e.1 += total.as_secs_f64();
        e.2 += 1;
        if layers.as_secs_f64() < RECONCILE_MIN * total.as_secs_f64() {
            e.3 += 1;
        }
    }

    /// Print the reconciliation per operation kind; `Err` names every
    /// kind whose layers cover less than [`RECONCILE_MIN`] of its time.
    pub fn check_reconciliation(&self) -> Result<f64, String> {
        let mut gaps = Vec::new();
        let mut worst = 1.0f64;
        for (kind, &(layers, total, n, under)) in &self.recon {
            let share = if total > 0.0 { layers / total } else { 1.0 };
            worst = worst.min(share);
            println!(
                "reconcile {kind}: layers cover {:.1}% of {:.3} s in-process over {n} ops \
                 ({under} single ops under {:.0}%)",
                share * 100.0,
                total,
                RECONCILE_MIN * 100.0
            );
            if share < RECONCILE_MIN {
                gaps.push(format!(
                    "{kind}: {:.1}% of in-process time ({:.3} s unattributed)",
                    share * 100.0,
                    total - layers
                ));
            }
        }
        if gaps.is_empty() {
            Ok(worst)
        } else {
            Err(format!("layer times do not add up: {}", gaps.join("; ")))
        }
    }
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line the benchmark prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Print one end-to-end metric line, with its sample count.
pub fn report(name: &str, value: f64, unit: &str, samples: usize) {
    println!("metric {name} = {value:.4} {unit} (n={samples})");
}

// ------------------------------------------------------------ host facts

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    use std::ffi::{c_char, c_int, c_long};

    extern "C" {
        fn getrusage(who: c_int, usage: *mut c_long) -> c_int;
        fn statfs(path: *const c_char, buf: *mut c_long) -> c_int;
    }

    /// Peak resident set size of this process, in KiB.
    pub fn peak_rss_kib() -> Option<u64> {
        // `struct rusage` on 64-bit Linux: two `timeval`s (4 longs),
        // then `ru_maxrss`, then 13 more longs.
        let mut buf = [0 as c_long; 18];
        // SAFETY: `buf` is 18 longs, the size of `struct rusage` on
        // 64-bit Linux, and `getrusage` writes only within it.
        let rc = unsafe { getrusage(0, buf.as_mut_ptr()) };
        (rc == 0).then(|| buf[4] as u64)
    }

    /// The `f_type` magic of the filesystem holding `path`.
    pub fn fs_magic(path: &std::path::Path) -> Option<u64> {
        use std::os::unix::ffi::OsStrExt;
        let c = std::ffi::CString::new(path.as_os_str().as_bytes()).ok()?;
        // `struct statfs` on 64-bit Linux is 15 longs; `f_type` comes
        // first. The buffer is twice that size.
        let mut buf = [0 as c_long; 32];
        // SAFETY: `c` is a NUL-terminated path and `buf` is larger than
        // `struct statfs`, the only memory `statfs` writes.
        let rc = unsafe { statfs(c.as_ptr(), buf.as_mut_ptr()) };
        (rc == 0).then(|| buf[0] as u64)
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod sys {
    pub fn peak_rss_kib() -> Option<u64> {
        None
    }

    pub fn fs_magic(_path: &std::path::Path) -> Option<u64> {
        None
    }
}

/// Peak resident set size so far, in MiB (0 where unknown).
pub fn peak_rss_mb() -> f64 {
    sys::peak_rss_kib().map_or(0.0, |k| k as f64 / 1024.0)
}

/// The filesystem type holding `path`.
pub fn filesystem(path: &Path) -> String {
    let Some(magic) = sys::fs_magic(path) else {
        return "unknown".into();
    };
    let name = match magic {
        0xEF53 => "ext4",
        0x5846_5342 => "xfs",
        0x9123_683E => "btrfs",
        0x0102_1994 => "tmpfs",
        0x794C_7630 => "overlayfs",
        0x6969 => "nfs",
        0x0102_1997 => "9p",
        0x6573_5546 => "fuse",
        0x2FC1_2FC1 => "zfs",
        0x6A65_6A63 => "virtiofs",
        _ => return format!("magic 0x{magic:x}"),
    };
    name.into()
}

/// The `host` line every output carries.
pub fn host_stamp(workload: &str, seed: u64, trace: bool, store_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "host workload={workload} seed={seed} trace={} nproc={nproc} profile={profile} \
         rustc=\"{}\" git_rev={} src_hash={} flush=\"{}\" store_fs={}",
        u8::from(trace),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT_REV"),
        env!("PERFBENCH_SRC_HASH"),
        crate::adapter::flush_policy(),
        filesystem(store_dir),
    )
}
