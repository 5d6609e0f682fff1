//! kbench — the repository's benchmark.
//!
//! ```text
//! kbench run     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--out FILE] [--smoke]
//! kbench trace   --workload <name> [--seed N] [--smoke]      (= run --trace 1)
//! kbench layers                                              per-layer microbenchmarks alone
//! kbench compare <a.json> <b.json> [--spec BENCHMARK.json]   applies the bounds; exit 1 on regression
//! kbench spec                                                prints BENCHMARK.json
//! ```
//!
//! See the README next to this file for what each workload and metric means.

mod compare;
mod drive;
mod json;
mod ladder;
mod layers;
mod measure;
mod spans;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use json::Json;
use workloads::Workload;

const DEFAULT_SEED: u64 = 7;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("kbench: {message}");
            eprintln!("usage: kbench run|trace|layers|compare|spec (see the README)");
            ExitCode::from(2)
        }
    }
}

/// Parsed `--flag value` options plus positional arguments.
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    out: Option<String>,
    spec: Option<String>,
    smoke: bool,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        out: None,
        spec: None,
        smoke: false,
        positional: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |flag: &str, text: String| {
            text.parse::<f64>()
                .ok()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| format!("{flag} needs a non-negative number, got {text:?}"))
        };
        match arg.as_str() {
            "--workload" => options.workload = Some(value("--workload")?),
            "--seed" => {
                let text = value("--seed")?;
                options.seed = text
                    .parse()
                    .map_err(|_| format!("--seed needs a whole number, got {text:?}"))?;
            }
            "--seconds" => options.seconds = number("--seconds", value("--seconds")?)?,
            "--trace" => options.trace = number("--trace", value("--trace")?)? != 0.0,
            "--repeat" => {
                options.repeat = number("--repeat", value("--repeat")?)?.max(1.0) as usize
            }
            "--out" => options.out = Some(value("--out")?),
            "--spec" => options.spec = Some(value("--spec")?),
            "--smoke" => options.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => options.positional.push(arg.clone()),
        }
    }
    Ok(options)
}

fn run_cli(args: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = args.split_first().ok_or("no command given")?;
    let mut options = parse_options(rest)?;
    match command.as_str() {
        "run" => {}
        "trace" => options.trace = true,
        "layers" => {
            measure::print_metrics(&layers::run());
            return Ok(ExitCode::SUCCESS);
        }
        "compare" => return compare::run(&options.positional, options.spec.as_deref()),
        "spec" => {
            print!("{}", spec::benchmark_json().pretty());
            return Ok(ExitCode::SUCCESS);
        }
        other => return Err(format!("unknown command {other}")),
    }
    let name = options
        .workload
        .as_deref()
        .ok_or("--workload is required")?;
    if name == "all" {
        return run_all(&options);
    }
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    // A failed output check is reported in the result line (`correct`,
    // `failed`); the exit code stays 0 so that the line is read.
    if options.trace {
        let result = trace::run(workload, options.seed, options.smoke);
        result.print_table();
        result.write_trace_file()?;
        println!("{}", result.driver_line());
    } else {
        let result = measure::run(workload, options.seed, options.seconds, options.smoke);
        result.print_table();
        // The entry `--workload all` collects into a result set.
        println!("result: {}", result.to_json().compact());
        println!("{}", result.driver_line());
    }
    Ok(ExitCode::SUCCESS)
}

/// `--workload all`: every workload in its own child process (so
/// `peak_rss_mb` is per workload), `--repeat` times, collected into one
/// result-set file for `kbench compare`.
fn run_all(options: &Options) -> Result<ExitCode, String> {
    if options.trace {
        return Err("--workload all runs untraced; trace one workload at a time".into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let mut runs = Vec::new();
        for repeat in 0..options.repeat {
            eprintln!(
                "kbench: {} run {}/{}",
                workload.name(),
                repeat + 1,
                options.repeat
            );
            let mut command = std::process::Command::new(&exe);
            command
                .args(["run", "--workload", workload.name()])
                .args(["--seed", &options.seed.to_string()])
                .args(["--seconds", &options.seconds.to_string()]);
            if options.smoke {
                command.arg("--smoke");
            }
            let output = command
                .output()
                .map_err(|e| format!("cannot start {}: {e}", workload.name()))?;
            if !output.status.success() {
                return Err(format!(
                    "{} exited with {}: {}",
                    workload.name(),
                    output.status,
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            let stdout = String::from_utf8_lossy(&output.stdout);
            let entry = stdout
                .lines()
                .find_map(|line| line.strip_prefix("result: "))
                .ok_or("child printed no result")?;
            runs.push(json::parse(entry)?);
            print!("{stdout}");
        }
        workloads.push((workload.name(), Json::Arr(runs)));
    }
    let set = Json::obj([
        ("seed", Json::UInt(options.seed)),
        ("seconds", Json::Num(options.seconds)),
        (
            "host_parallelism",
            Json::UInt(stats::host_parallelism() as u64),
        ),
        ("workers", Json::UInt(drive::WORKERS as u64)),
        ("workloads", Json::obj(workloads)),
    ]);
    if let Some(path) = &options.out {
        std::fs::write(path, set.pretty()).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("kbench: wrote {path}");
    }
    Ok(ExitCode::SUCCESS)
}
