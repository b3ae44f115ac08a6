//! `perfbench`: the xwq benchmark. One run drives one workload through the
//! crates' public functions for `--seconds`, checks every answer against
//! expectations computed apart from the measured code, and prints one JSON
//! line: end-to-end metrics with `--trace 0`, per-layer metrics (from spans
//! around the benchmark's calls into each layer) with `--trace 1`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench steady --workload <name>[,<name>...] --runs <n> --seconds <s>
//! ```
//!
//! See README.md for the workloads, metrics and reference figures.

mod check;
mod client;
mod inputs;
mod json;
mod layers;
mod serve;
mod steady;
mod trace;
mod util;
mod xmark;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Planned,
    Automaton,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Planned, Workload::Automaton, Workload::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Planned => "xmark-planned",
            Workload::Automaton => "xmark-automaton",
            Workload::Serve => "serve-corpus",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What every workload gets from `main`.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for artifacts, removed when the run ends.
    pub dir: PathBuf,
    inputs: HashMap<String, Vec<u8>>,
}

impl Ctx {
    /// XML bytes of the generated document `name`.
    pub fn xml(&self, name: &str) -> &[u8] {
        &self.inputs[name]
    }
}

/// Removes the run's scratch directory on every exit path.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let workload = flag(args, "--workload").ok_or("missing --workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let num = |name: &str, default: &str| -> Result<f64, String> {
        flag(args, name)
            .unwrap_or(default)
            .parse::<f64>()
            .map_err(|_| format!("{name} needs a number"))
    };
    let seconds = num("--seconds", "10")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed", "1")? as u64,
        seconds,
        trace: num("--trace", "0")? != 0.0,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("steady") => return steady::main(&args[1..]),
        Some("gen") => return gen_main(&args[1..]),
        _ => {}
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&a) {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(a: &Args) -> Result<util::Report, String> {
    let dir = Path::new(".perfbench_work").join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let scratch = ScratchDir(dir.clone());

    // Inputs are generated in a child process, so their construction is
    // outside this process's peak resident set.
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = std::process::Command::new(exe)
        .args(["gen", "--workload", a.workload.name(), "--seed"])
        .arg(a.seed.to_string())
        .arg("--dir")
        .arg(&dir)
        .status()
        .map_err(|e| format!("input generator: {e}"))?;
    if !status.success() {
        return Err(format!("input generator failed: {status}"));
    }
    let mut inputs = HashMap::new();
    for entry in std::fs::read_dir(&dir).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if let Some(name) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_suffix(".xml"))
        {
            let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
            inputs.insert(name.to_string(), bytes);
            std::fs::remove_file(&path).map_err(|e| e.to_string())?;
        }
    }
    if a.trace {
        trace::enable();
    }
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        dir: dir.clone(),
        inputs,
    };
    let (steal0, total0) = util::cpu_ticks();
    let report = match a.workload {
        Workload::Planned => xmark::run_planned(&ctx),
        Workload::Automaton => xmark::run_automaton(&ctx),
        Workload::Serve => serve::run(&ctx),
    };
    let (steal1, total1) = util::cpu_ticks();
    eprintln!(
        "perfbench: cpu steal {:.1}% of the machine's cpu time during the run",
        100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
    );
    drop(scratch);
    Ok(report)
}

fn gen_main(args: &[String]) -> ExitCode {
    let (Some(w), Some(seed), Some(dir)) = (
        flag(args, "--workload").and_then(Workload::parse),
        flag(args, "--seed").and_then(|s| s.parse::<u64>().ok()),
        flag(args, "--dir"),
    ) else {
        eprintln!("usage: perfbench gen --workload <name> --seed <n> --dir <dir>");
        return ExitCode::from(2);
    };
    match inputs::generate_into(w, seed, Path::new(dir)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench gen: {e}");
            ExitCode::from(1)
        }
    }
}

/// A traced run also prints its end-to-end figures (to stderr), so that
/// the tracing overhead is the difference from an untraced run.
pub fn print_traced_e2e(metrics: &[util::Metric]) {
    for m in metrics {
        eprintln!("perfbench: traced {} = {:.4} {}", m.name, m.value, m.unit);
    }
}
