//! The BANKS-II benchmark harness: boots the serving stack in-process on
//! a loopback port and drives it over real TCP / HTTP / SSE.
//!
//! ```text
//! benchmark run --workload <name|all> --seed <n> [--seconds <s>] [--trace <0|1>]
//!               [--quick] [--label] [--reverse]
//! benchmark compare A.json B.json
//! ```
//!
//! `run` prints one JSON object per workload on standard output, last:
//! `correct`, `attempted`, `failed` and `metrics` (`--trace 0`: the
//! end-to-end metrics of `BENCHMARK.json`; `--trace 1`: the per-layer
//! ones).  `--label` adds `workload`, `trace`, `seed` and per-operation
//! counts to the row — the shape `compare` reads.  `--workload all` runs
//! every workload in both modes, labelled, each in a process of its own
//! (peak RSS and allocator state must not leak from one run into the
//! next).  Everything else goes to standard error.  The exit code is
//! non-zero when any operation failed.

mod client;
mod compare;
mod corpus;
mod oracle;
mod probes;
mod rng;
mod spec;
mod stack;
mod stats;
mod sys;
mod wire;
mod workloads;

use std::process::ExitCode;

use spec::Spec;
use workloads::{Options, Outcome};

const USAGE: &str = "usage: benchmark run --workload <name|all> --seed <n> \
    [--seconds <s>] [--trace <0|1>] [--quick] [--label] [--reverse]\n       \
    benchmark compare A.json B.json";

/// Measured seconds per mode in `--quick` (smoke) runs: 3 s per workload
/// over its two modes, so `--workload all --quick` stays under 30 s.
const QUICK_SECONDS: f64 = 1.5;

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    label: bool,
    reverse: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        label: false,
        reverse: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                let seconds: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => parsed.quick = true,
            "--label" => parsed.label = true,
            "--reverse" => parsed.reverse = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    Ok(parsed)
}

/// The metrics object of one row: exactly the names `BENCHMARK.json`
/// lists for the mode, each with its unit.  Every workload measures every
/// end-to-end metric; a per-layer metric of a layer the workload does not
/// exercise reads 0 (README, "Zero means not exercised").
fn metrics_json(spec: &Spec, outcome: &Outcome, trace: bool) -> Result<String, String> {
    let mut fields = Vec::new();
    for metric in spec.emitted(trace) {
        let value = match outcome.metrics.get(metric.name.as_str()) {
            Some(value) => *value,
            None if trace => 0.0,
            None => return Err(format!("the runner did not measure {}", metric.name)),
        };
        if !value.is_finite() {
            return Err(format!("{} measured as {value}", metric.name));
        }
        fields.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            banks_core::json::string(&metric.name),
            banks_core::json::string(&metric.unit),
        ));
    }
    Ok(format!("{{{}}}", fields.join(",")))
}

fn run_one(spec: &Spec, name: &str, opt: &Options, labelled: bool) -> Result<bool, String> {
    eprintln!(
        "== {name}: seed {}, {} s, trace {}, {} core(s)",
        opt.seed,
        opt.seconds,
        u8::from(opt.trace),
        stack::nproc()
    );
    let outcome = workloads::run(name, opt)?;
    for note in &outcome.notes {
        eprintln!("   {note}");
    }
    eprintln!(
        "   query: {} attempted, {} failed; mutate: {} attempted, {} failed",
        outcome.queries_attempted,
        outcome.queries_failed,
        outcome.mutations_attempted,
        outcome.mutations_failed
    );
    for error in &outcome.errors {
        eprintln!("   FAILED: {error}");
    }
    let failed = outcome.queries_failed + outcome.mutations_failed;
    let label = if labelled {
        format!(
            "\"workload\":\"{name}\",\"trace\":{},\"seed\":{},\
             \"ops\":{{\"query\":{{\"attempted\":{},\"failed\":{}}},\
             \"mutate\":{{\"attempted\":{},\"failed\":{}}}}},",
            u8::from(opt.trace),
            opt.seed,
            outcome.queries_attempted,
            outcome.queries_failed,
            outcome.mutations_attempted,
            outcome.mutations_failed,
        )
    } else {
        String::new()
    };
    println!(
        "{{{label}\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        (outcome.queries_attempted + outcome.mutations_attempted).max(1),
        metrics_json(spec, &outcome, opt.trace)?,
    );
    Ok(failed == 0)
}

fn run(args: &[String]) -> Result<bool, String> {
    let args = parse_run_args(args)?;
    let spec = Spec::load();
    let seconds = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        spec.run_seconds
    });
    if args.workload != "all" {
        let opt = Options {
            seed: args.seed,
            seconds,
            trace: args.trace,
            quick: args.quick,
        };
        return run_one(&spec, &args.workload, &opt, args.label);
    }
    let mut names = workloads::NAMES.to_vec();
    if args.reverse {
        names.reverse();
    }
    let exe = std::env::current_exe().map_err(|e| format!("locate this binary: {e}"))?;
    let mut clean = true;
    for name in names {
        for trace in ["0", "1"] {
            let mut child = std::process::Command::new(&exe);
            child
                .args(["run", "--label", "--workload", name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string()]);
            if args.quick {
                child.arg("--quick");
            }
            // `status` waits for the child; its rows go straight to our
            // standard output.
            let status = child
                .status()
                .map_err(|e| format!("run {name} in a child process: {e}"))?;
            match status.code() {
                Some(0) => {}
                Some(1) => clean = false,
                _ => return Err(format!("{name} (trace {trace}) ended with {status}")),
            }
        }
    }
    Ok(clean)
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let read = |path: &String| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    compare::run(&Spec::load(), &read(a)?, &read(b)?)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((command, rest)) if command == "run" => run(rest),
        Some((command, rest)) if command == "compare" => compare(rest),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every name `BENCHMARK.json` lists is measured by the runner — an
    /// end-to-end metric by every workload, a per-layer metric by at
    /// least one — and the runner measures nothing the file does not
    /// list.  Smoke runs of each workload in both modes, oracle on.
    #[test]
    fn benchmark_json_and_runner_agree_on_names() {
        use std::collections::BTreeSet;
        let spec = Spec::load();
        assert_eq!(spec.workloads, workloads::NAMES);
        let listed: BTreeSet<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let mut measured_somewhere = BTreeSet::new();
        for name in workloads::NAMES {
            let mut measured = BTreeSet::new();
            for trace in [false, true] {
                let opt = Options {
                    seed: 3,
                    seconds: 1.5,
                    trace,
                    quick: true,
                };
                let outcome = workloads::run(name, &opt).expect(name);
                assert_eq!(
                    (outcome.queries_failed, outcome.mutations_failed),
                    (0, 0),
                    "{name}: {:?}",
                    outcome.errors
                );
                metrics_json(&spec, &outcome, trace)
                    .unwrap_or_else(|e| panic!("{name} trace {trace}: {e}"));
                measured.extend(outcome.metrics.keys().copied());
            }
            let unlisted: Vec<_> = measured.difference(&listed).collect();
            assert!(unlisted.is_empty(), "{name} measures unlisted {unlisted:?}");
            measured_somewhere.extend(measured);
        }
        let unmeasured: Vec<_> = listed.difference(&measured_somewhere).collect();
        assert!(unmeasured.is_empty(), "no workload measures {unmeasured:?}");
    }
}
