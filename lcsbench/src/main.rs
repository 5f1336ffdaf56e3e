//! End-to-end benchmark of the shortcut pipeline on a host-normalized
//! clock.
//!
//! ```text
//! lcsbench --workload <construct|serve|reweight|degraded> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in this process on one thread: a
//! closed loop with one client over an operation sequence generated
//! from `--seed` before set-up and sized from `--seconds`. Every output
//! is checked outside the timed region. Context lines come first; the
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! also writes its spans to `out/<workload>-<seed>.spans.jsonl` in this
//! package's directory.

mod clock;
mod construct;
mod degraded;
mod heap;
mod layers;
mod pipeline;
mod run;
mod serve;
mod trace;

use run::Ctx;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

const WORKLOADS: [&str; 4] = ["construct", "serve", "reweight", "degraded"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn write_spans(ctx: &Ctx, args: &Args) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-{}.spans.jsonl", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, ctx.trace.to_jsonl()));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lcsbench: {e}");
            eprintln!(
                "usage: lcsbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx::new(args.trace);
    let peak_heap_mb = match args.workload.as_str() {
        "construct" => construct::run(&mut ctx, args.seed, args.seconds),
        "serve" => serve::run_serve(&mut ctx, args.seed, args.seconds),
        "reweight" => serve::run_reweight(&mut ctx, args.seed, args.seconds),
        "degraded" => degraded::run(&mut ctx, args.seed, args.seconds),
        _ => unreachable!("workload validated by parse_args"),
    };
    let metrics = if args.trace {
        write_spans(&ctx, &args);
        run::per_layer(&ctx)
    } else {
        run::end_to_end(&ctx, peak_heap_mb)
    };
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for line in run::context(&ctx) {
        println!("{line}");
    }
    let (attempted, failed) = ctx.tally();
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("a metric is not finite");
    }
    println!(
        "{}",
        run::result_line(
            failed == 0 && attempted > 0 && finite,
            attempted,
            failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}
