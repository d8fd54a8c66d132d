//! `perfbench --workload <interactive|saturation|lpq_search|all> --seed <n>
//! --seconds <n> --trace <0|1>`
//!
//! Prints a human-readable report, a `host` line with the fingerprint and
//! sample counts, and as its last line the result object. `--workload
//! all` runs every workload untraced and then traced, each in a fresh
//! process.

#![forbid(unsafe_code)]

use perfbench::json::Json;
use perfbench::{host, search, serving, spans, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or all"
        ));
    }
    let seconds = seconds.unwrap_or(25);
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

/// Prints the traced run's end-to-end numbers next to the last untraced
/// run of the same workload: the tracing overhead.
fn overhead(workload: &str, traced: &Outcome) -> String {
    let path = out_dir().join(format!("{workload}-untraced.json"));
    let Ok(text) = std::fs::read_to_string(&path) else {
        return format!(
            "tracing overhead: no untraced run of {workload} recorded yet ({})\n",
            path.display()
        );
    };
    let mut out = format!(
        "tracing overhead (traced minus untraced; untraced from {}):\n",
        path.display()
    );
    for (name, unit) in END_TO_END {
        let (Some(t), Some(u)) = (traced.end_to_end.get(name), lookup(&text, name)) else {
            continue;
        };
        out.push_str(&format!(
            "  {name:<12} traced {t:>12.4} {unit:<4} untraced {u:>12.4}  diff {:>+10.4} ({:+.2}%)\n",
            t - u,
            (t - u) / u * 100.0
        ));
    }
    out
}

/// The `value` of metric `name` in a result line written by this program.
fn lookup(text: &str, name: &str) -> Option<f64> {
    let pattern = format!("\"{name}\": {{\"value\": ");
    let at = text.find(&pattern)? + pattern.len();
    let end = text[at..].find(',')? + at;
    text[at..end].parse().ok()
}

fn run_one(args: &Args) -> Result<ExitCode, String> {
    let fp = host::Fingerprint::collect(serving::POOL_THREADS, args.seed);
    let secs = args.seconds as f64;
    let steal_start = host::steal_jiffies();
    let result = match args.workload.as_str() {
        "interactive" => serving::interactive(args.seed, secs, args.trace),
        "saturation" => serving::saturation(args.seed, secs, args.trace),
        "lpq_search" => search::lpq_search(secs, args.trace),
        other => unreachable!("validated workload {other}"),
    };
    let mut o = result.map_err(|e| format!("{}: {e}", args.workload))?;
    o.per_layer.insert("trace.spans", o.spans.len() as f64);
    let mode = if args.trace { "traced" } else { "untraced" };
    println!(
        "== {} ({mode}, seed {}, {} s) ==",
        args.workload, args.seed, args.seconds
    );
    print!("{}", o.report);
    if let Some(pct) = host::steal_pct(steal_start, host::steal_jiffies()) {
        println!("host steal during the run: {pct:.2}% of all CPU time");
    }
    println!(
        "requests/operations: sent {}  succeeded {}  failed {}",
        o.attempted,
        o.attempted.saturating_sub(o.failed),
        o.failed
    );
    for (name, unit) in END_TO_END {
        println!("  {name:<12} {:>14.6} {unit}", o.end_to_end[name]);
    }
    if args.trace {
        for (name, unit) in PER_LAYER {
            println!(
                "  {name:<28} {:>16.6} {unit}",
                o.per_layer.get(name).copied().unwrap_or(0.0)
            );
        }
        print!("{}", overhead(&args.workload, &o));
        let path = out_dir().join(format!("{}-seed{}-spans.jsonl", args.workload, args.seed));
        spans::write_lines(&path, std::mem::take(&mut o.spans))
            .map_err(|e| format!("writing spans: {e}"))?;
        println!("spans written to {}", path.display());
    }
    if o.failed > 0 {
        eprintln!(
            "perfbench: {} of {} operations FAILED their output check",
            o.failed, o.attempted
        );
    }
    let samples = Json::obj(o.samples.iter().map(|&(k, n)| (k, Json::Int(n as u64))));
    println!(
        "{}",
        Json::obj([
            ("host", fp.to_json()),
            ("samples", samples),
            ("mode", Json::Str(mode.into()))
        ])
        .render()
    );
    let line = o.result(args.trace).render();
    if !args.trace {
        let path = out_dir().join(format!("{}-untraced.json", args.workload));
        spans::write_lines(&path, [o.result(false)])
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

/// Runs every workload untraced, then traced, each in its own process.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            let out = std::process::Command::new(&exe)
                .args(["--workload", w, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("running {w}: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            print!("{text}");
            let last = text.lines().last().unwrap_or("");
            if !out.status.success() || !last.starts_with("{\"correct\": ") {
                return Err(format!("{w} (trace {trace}) did not complete"));
            }
            correct &= last.starts_with("{\"correct\": true");
            let field = |key: &str| {
                let at = last
                    .find(&format!("\"{key}\": "))
                    .map(|i| i + key.len() + 4)?;
                last[at..].split(',').next()?.parse::<u64>().ok()
            };
            attempted += field("attempted").unwrap_or(0);
            failed += field("failed").unwrap_or(1);
        }
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct && failed == 0)),
            ("attempted", Json::Int(attempted)),
            ("failed", Json::Int(failed)),
            ("metrics", Json::obj(Vec::<(String, Json)>::new())),
        ])
        .render()
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Fixed before any pool exists: the global pool (LPQ's fork-join) and
    // the quick LPQ preset must not follow the caller's environment.
    std::env::set_var("SERVE_THREADS", serving::POOL_THREADS.to_string());
    std::env::remove_var("LPQ_PRESET");
    spans::now_ns();
    let run = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    run.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::FAILURE
    })
}
