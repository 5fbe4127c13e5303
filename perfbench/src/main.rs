//! `pstm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable notes, then one JSON result object as the last
//! line of standard output. Exits 0 when the correctness gate passed,
//! 1 when it did not or the run failed, 2 on bad arguments.

use pstm_perfbench::gen::Workload;
use pstm_perfbench::report;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("seconds must be 1..=600, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pstm-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match report::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("pstm-perfbench: run failed: {e}");
            std::process::exit(1);
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("{:<44} {:>18.3} {}", m.name, m.value, m.unit);
    }
    for v in &report.violations {
        eprintln!("gate violation: {v}");
    }
    println!("{}", report.json());
    std::process::exit(if report.correct { 0 } else { 1 });
}
