//! The repository's benchmark: three workloads driven through the public
//! APIs of `silo-core`, `silo-wl`, `silo-log`, `silo-net` and `silo-client`.
//!
//! ```text
//! perfbench --workload <ycsb-mem|tpcc-durable|net-kv> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --selftest
//! ```
//!
//! An untraced run (`--trace 0`) runs three cycles of set-up, a warm-up and
//! a third of `--seconds` measured, times further set-ups, and prints the
//! end-to-end metrics. A
//! traced run (`--trace 1`) sets up once and measures half the time untraced
//! and half traced, and prints the per-layer metrics, the tracing overhead
//! and the latency no traced layer explains. Every cycle checks the
//! workload's results; the last line of standard output is one JSON object,
//! and the exit code is non-zero if a check failed.
//! `--selftest` runs every workload briefly on small data, in both modes,
//! and also recovers the `tpcc-durable` log.

mod common;
mod hist;
mod netkv;
mod tpcc;
mod trace;
mod ycsb;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{
    mem_peak_mb, process_cpu_s, ratio, Checks, MemProbe, Metrics, Phase, PhaseSpec, Plan, EPOCH_MS,
    TRACE_EVERY,
};
use hist::Histogram;

/// A workload as the benchmark drives it.
pub trait Workload: Sized {
    /// Set-ups per untraced cycle after the first. All but the last are
    /// only timed and torn down, so that `setup_s` is a median over many.
    const SETUPS_PER_CYCLE: u32;
    /// Operations the first untraced cycle completes before peak memory is
    /// read: enough for the run's own allocations to show, and well under
    /// what its warm-up completes.
    const MEM_AFTER_OPS: u64;
    /// The workload's parameters, recorded with every result.
    fn config(small: bool) -> Vec<(&'static str, String)>;
    /// Loads the data and starts what the workload needs (timed as set-up).
    fn setup(plan: &Plan) -> Self;
    /// Stops what `setup` started, checking nothing.
    fn teardown(self);
    /// Runs the plan's phases back to back on the same threads.
    fn run(&mut self, plan: &Plan) -> Vec<Phase>;
    /// Per-layer metrics of phase `traced`, with the cross-layer checks.
    fn layers(&mut self, phases: &[Phase], traced: usize, m: &mut Metrics, checks: &mut Checks);
    /// Checks the final state, then tears down.
    fn verify(self, checks: &mut Checks);
}

const WORKLOADS: [&str; 3] = ["ycsb-mem", "tpcc-durable", "net-kv"];
const WARMUP: Duration = Duration::from_secs(1);
/// Set-up, warm-up and measured slice cycles per untraced run.
const CYCLES: u32 = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selftest" {
            args.selftest = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.selftest && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds < 0.2 {
        return Err("--seconds must be at least 0.2".to_string());
    }
    Ok(args)
}

/// The result of one run, ready to print.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    checks: Checks,
    config: Vec<(&'static str, String)>,
}

/// One run of a workload, untraced or traced, with the config that
/// produced it.
fn execute<W: Workload>(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    small: bool,
    out: &Path,
) -> Report {
    let warmup = if small { WARMUP / 5 } else { WARMUP };
    let cycles = if trace || small { 1 } else { CYCLES };
    let setups = 1 + (cycles - 1) * W::SETUPS_PER_CYCLE;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut config = vec![
        ("workload", name.to_string()),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", u8::from(trace).to_string()),
        ("cycles", cycles.to_string()),
        ("setups", setups.to_string()),
        ("warmup_s", warmup.as_secs_f64().to_string()),
        ("epoch_ms", EPOCH_MS.to_string()),
        ("trace_every", TRACE_EVERY.to_string()),
        ("nproc", nproc.to_string()),
        ("loop", "closed".to_string()),
    ];
    config.extend(W::config(small));
    let mut r = Report {
        attempted: 0,
        failed: 0,
        metrics: Metrics::default(),
        checks: Checks::default(),
        config,
    };
    let base = Plan {
        seed,
        dir: out.join(format!("work-{name}-{}", std::process::id())),
        phases: Vec::new(),
        small,
        mem: Arc::default(),
    };
    let secs = Duration::from_secs_f64(seconds);
    let steal_before = cpu_steal();
    if trace {
        traced::<W>(
            &base,
            warmup,
            secs,
            &out.join(format!("trace-{name}-seed{seed}.csv")),
            &mut r,
        );
    } else {
        untraced::<W>(&base, warmup, secs, cycles, &mut r);
    }
    let steal_after = cpu_steal();
    let stolen = ratio(
        (steal_after.0 - steal_before.0) as f64,
        (steal_after.1 - steal_before.1) as f64,
    );
    r.config
        .push(("host_steal_pct", format!("{:.1}", 100.0 * stolen)));
    // End-to-end metrics are gated on, so none of them may be 0 either.
    let unusable: Vec<_> = (r.metrics.0)
        .iter()
        .filter(|(_, v, _)| !v.is_finite() || (!trace && *v <= 0.0))
        .map(|(name, v, _)| format!("{name}={v}"))
        .collect();
    r.checks.check(
        unusable.is_empty(),
        format!("every metric is finite, and every end-to-end one above 0: {unusable:?}"),
    );
    r
}

fn untraced_phase(dur: Duration) -> PhaseSpec {
    PhaseSpec {
        dur,
        trace_every: 0,
    }
}

/// How long one set-up took.
#[derive(Clone, Copy)]
struct SetupTime {
    /// CPU time of all the process's threads: the work set-up does.
    cpu_s: f64,
    /// Elapsed time, which also grows with waits and with CPU time the
    /// host takes from this machine.
    wall_s: f64,
}

/// Sets the workload up in a fresh scratch directory, timed.
fn set_up<W: Workload>(plan: &Plan) -> (W, SetupTime) {
    let _ = std::fs::remove_dir_all(&plan.dir);
    let (t0, cpu0) = (Instant::now(), process_cpu_s());
    let w = W::setup(plan);
    let time = SetupTime {
        cpu_s: process_cpu_s() - cpu0,
        wall_s: t0.elapsed().as_secs_f64(),
    };
    (w, time)
}

/// What one set-up and its run produced.
struct Cycle {
    phases: Vec<Phase>,
    setup: SetupTime,
}

/// Sets up, runs the plan, calls `between` (for per-layer readings), checks
/// the results and tears down.
fn cycle<W: Workload>(
    plan: &Plan,
    checks: &mut Checks,
    between: impl FnOnce(&mut W, &[Phase], &mut Checks),
) -> Cycle {
    let (mut w, setup) = set_up::<W>(plan);
    let phases = w.run(plan);
    between(&mut w, &phases, checks);
    w.verify(checks);
    let _ = std::fs::remove_dir_all(&plan.dir);
    Cycle { phases, setup }
}

/// Steal and total CPU time of the machine so far, in clock ticks, from the
/// first line of `/proc/stat`: a host that steals time from this machine's
/// CPUs slows the benchmark without any change in the code.
fn cpu_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Times one set-up that is torn down without running.
fn setup_only<W: Workload>(plan: &Plan) -> SetupTime {
    let (w, time) = set_up::<W>(plan);
    w.teardown();
    let _ = std::fs::remove_dir_all(&plan.dir);
    time
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// The end-to-end run: `cycles` cycles, each a fresh set-up with its own
/// inputs, a warm-up and a measured slice of `secs / cycles`; each cycle
/// after the first also times `SETUPS_PER_CYCLE - 1` set-ups it tears down
/// unrun. Fresh set-ups
/// average over state a process keeps for its whole life (such as how the
/// epoch and logger timers happen to line up), which would otherwise make
/// whole runs fast or slow.
fn untraced<W: Workload>(
    base: &Plan,
    warmup: Duration,
    secs: Duration,
    cycles: u32,
    r: &mut Report,
) {
    let slice = secs / cycles;
    let mut total = Phase::default();
    let (mut setups, mut mem_mb) = (Vec::new(), 0.0);
    for c in 0..cycles {
        // Later cycles would also count what earlier ones left behind in
        // the allocator, so only the first reads memory.
        let mem_after = if c == 0 && !base.small {
            W::MEM_AFTER_OPS
        } else {
            0
        };
        let plan = Plan {
            seed: base.seed ^ (u64::from(c) << 32),
            phases: vec![untraced_phase(warmup), untraced_phase(slice)],
            mem: MemProbe::new(mem_after),
            ..base.clone()
        };
        if c > 0 {
            // The first cycle sets up once, so its memory peak is that of
            // one set-up in a fresh process.
            for _ in 1..W::SETUPS_PER_CYCLE {
                setups.push(setup_only::<W>(&plan));
            }
        }
        let mut run = cycle::<W>(&plan, &mut r.checks, |_, _, _| {});
        let measured = run.phases.swap_remove(1);
        r.checks.check(
            measured.completed > 0,
            format!("cycle {c} completed operations ({})", measured.completed),
        );
        setups.push(run.setup);
        if c == 0 {
            // The self-test's small runs may not reach the count.
            let read = plan.mem.mb().or(base.small.then(mem_peak_mb));
            r.checks.check(
                read.is_some(),
                format!("memory was read after {mem_after} operations"),
            );
            mem_mb = read.unwrap_or(0.0);
        }
        println!(
            "# cycle {c}: set-up {:.3} s CPU, {:.3} s elapsed, throughput {:.0}/s",
            run.setup.cpu_s,
            run.setup.wall_s,
            measured.completed as f64 / slice.as_secs_f64(),
        );
        total.merge(measured);
    }
    let mut cpu_s: Vec<f64> = setups.iter().map(|s| s.cpu_s).collect();
    let mut wall_s: Vec<f64> = setups.iter().map(|s| s.wall_s).collect();
    let setup_s = median(&mut cpu_s);
    println!(
        "# set-up, median of {}: {setup_s:.4} s CPU ({:.4}..{:.4}), {:.4} s elapsed ({:.4}..{:.4})",
        setups.len(),
        cpu_s[0],
        cpu_s[cpu_s.len() - 1],
        median(&mut wall_s),
        wall_s[0],
        wall_s[wall_s.len() - 1],
    );
    r.attempted = total.attempted;
    r.failed = total.failed;
    let m = &mut r.metrics;
    m.put(
        "throughput",
        total.completed as f64 / secs.as_secs_f64(),
        "1/s",
    );
    m.put("setup_s", setup_s, "s");
    m.put("mem_peak_mb", mem_mb, "MB");
    m.put("read_p50_us", total.read.quantile(0.5) / 1e3, "us");
    m.put("write_p50_us", total.write.quantile(0.5) / 1e3, "us");
    for (class, h) in [("read", &total.read), ("write", &total.write)] {
        let tail = if h.supports(0.99) {
            "has"
        } else {
            "does NOT have"
        };
        println!(
            "# {class} latency: {} samples; p99 {tail} ten samples beyond it",
            h.count()
        );
    }
}

/// The traced run: one set-up, a warm-up, then a quarter untraced, half
/// traced and a quarter untraced, so a steady drift over the run (TPC-C's
/// tables grow) cancels out of the overhead estimate.
fn traced<W: Workload>(base: &Plan, warmup: Duration, secs: Duration, csv: &Path, r: &mut Report) {
    let traced = PhaseSpec {
        dur: secs / 2,
        trace_every: TRACE_EVERY,
    };
    let quarter = untraced_phase(secs / 4);
    let plan = Plan {
        phases: vec![untraced_phase(warmup), quarter, traced, quarter],
        ..base.clone()
    };
    let (u, t) = ([1, 3], 2);
    let m = &mut r.metrics;
    let run = cycle::<W>(&plan, &mut r.checks, |w, phases, checks| {
        w.layers(phases, t, m, checks)
    });
    let phases = &run.phases;
    let idle: Vec<usize> = (1..phases.len())
        .filter(|&i| phases[i].completed == 0)
        .collect();
    r.checks.check(
        idle.is_empty(),
        format!("every measured phase completed operations ({idle:?} did not)"),
    );
    r.attempted = phases[1..].iter().map(|p| p.attempted).sum();
    r.failed = phases[1..].iter().map(|p| p.failed).sum();
    // Tail latencies and sample counts of the untraced quarters: reported
    // here because their run-to-run spread is too wide to gate on.
    for class in ["read", "write"] {
        let mut h = Histogram::default();
        for i in u {
            let p = &phases[i];
            h.merge(if class == "read" { &p.read } else { &p.write });
        }
        m.put(format!("e2e.{class}_p99_us"), h.quantile(0.99) / 1e3, "us");
        m.put(format!("e2e.{class}_samples"), h.count() as f64, "count");
    }
    let p = &phases[t];
    let tries = (p.attempted + p.retries) as f64;
    m.put(
        "fail_ratio",
        ratio((p.retries + p.failed) as f64, tries),
        "ratio",
    );
    let selfs = trace::self_times(&p.spans);
    let requests = selfs.get(trace::REQUEST);
    m.put(
        "trace.requests",
        requests.map_or(0, |h| h.count()) as f64,
        "count",
    );
    m.put(
        "trace.unexplained_us",
        requests.map_or(0.0, |h| h.quantile(0.5) / 1e3),
        "us",
    );
    let rate = |ids: &[usize]| {
        let done: u64 = ids.iter().map(|&i| phases[i].completed).sum();
        let secs: f64 = ids.iter().map(|&i| plan.phases[i].dur.as_secs_f64()).sum();
        done as f64 / secs
    };
    let (plain, with_trace) = (rate(&u), rate(&[t]));
    m.put(
        "trace.overhead_pct",
        100.0 * ratio(plain - with_trace, plain),
        "%",
    );
    match trace::write_csv(csv, &p.spans) {
        Ok(()) => println!("# spans written to {}", csv.display()),
        Err(e) => r
            .checks
            .check(false, format!("write {}: {e}", csv.display())),
    }
}

fn run(name: &str, seed: u64, seconds: f64, trace: bool, small: bool, out: &Path) -> Report {
    match name {
        "ycsb-mem" => execute::<ycsb::Ycsb>(name, seed, seconds, trace, small, out),
        "tpcc-durable" => execute::<tpcc::Tpcc>(name, seed, seconds, trace, small, out),
        "net-kv" => execute::<netkv::NetKv>(name, seed, seconds, trace, small, out),
        other => unreachable!("unknown workload {other}"),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn print_report(r: &Report) {
    let config: Vec<String> = r
        .config
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    println!("CONFIG {{{}}}", config.join(","));
    for (name, value, unit) in &r.metrics.0 {
        println!("# {name:<40} {value:>16.4} {unit}");
    }
    for c in &r.checks.passed {
        println!("# check passed: {c}");
    }
    for c in &r.checks.failed {
        println!("# CHECK FAILED: {c}");
    }
    let metrics: Vec<String> = r
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.checks.failed.is_empty(),
        r.attempted,
        r.failed,
        metrics.join(",")
    );
}

/// Runs every workload briefly on small data, untraced and traced, and
/// checks that each run is correct and that every workload reports the same
/// metric names in each mode.
fn selftest(out: &Path) -> bool {
    let mut ok = true;
    let mut names: [Option<Vec<String>>; 2] = [None, None];
    for workload in WORKLOADS {
        for trace in [false, true] {
            let r = run(workload, 7, 1.0, trace, true, out);
            let these: Vec<String> = r.metrics.0.iter().map(|(n, _, _)| n.clone()).collect();
            let same = names[usize::from(trace)].get_or_insert_with(|| these.clone()) == &these;
            let good = r.checks.failed.is_empty() && r.failed == 0 && r.attempted > 0 && same;
            println!(
                "# selftest {workload} trace={}: {} ({} attempted, {} checks passed, {:?} failed{})",
                u8::from(trace),
                if good { "ok" } else { "FAILED" },
                r.attempted,
                r.checks.passed.len(),
                r.checks.failed,
                if same { "" } else { "; metric names differ from the first workload's" }
            );
            ok &= good;
        }
    }
    ok
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.selftest {
        let ok = selftest(&args.out);
        println!(
            "{}",
            if ok {
                "SELFTEST PASSED"
            } else {
                "SELFTEST FAILED"
            }
        );
        std::process::exit(if ok { 0 } else { 1 });
    }
    let r = run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        false,
        &args.out,
    );
    print_report(&r);
    std::process::exit(if r.checks.failed.is_empty() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's own end-to-end test: every workload, both modes,
    /// plus recovery of the `tpcc-durable` log.
    #[test]
    fn selftest_passes() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join("selftest");
        assert!(selftest(&out));
    }
}
