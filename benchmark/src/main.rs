//! The repository's benchmark: one command runs a named workload from a
//! seed, checks its outputs against a plain-Rust reference, and prints
//! every metric by name with its unit. See `README.md`.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use stapl_benchmark::harness::{self, Opts, Report, P_PAR};
use stapl_benchmark::json::Json;
use stapl_benchmark::metrics::{self, Class, RUN_SECONDS, WORKLOADS};
use stapl_benchmark::{compare, host, workloads};

const USAGE: &str = "\
usage: stapl-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
                       [--quick] [--selftest-corrupt]
       stapl-benchmark --list | --print-manifest | --check-manifest FILE | --compare DIR_A DIR_B

  --workload W        one of the workloads printed by --list
  --seed N            seed of the generated input (default 1)
  --seconds S         run length; scales the number of runtime instances (default: run_seconds)
  --trace 0|1         0: end-to-end metrics (default); 1: per-layer metrics and trace.json
  --out DIR           where the result file and trace.json go (default: benchmark/out)
  --quick             4 instances of tiny sizes: a smoke test, never comparable
  --selftest-corrupt  flip one reference value; the run must report correct: false
exit code: 0 correct, 1 incorrect or failed operations, 2 usage or host not fit to measure";

/// Exit code for a command line or a host the benchmark refuses.
const REFUSED: u8 = 2;

/// The glibc malloc settings every run uses: no per-thread cache, every
/// block from the heap, nothing given back to the kernel. `peak_rss_mb`
/// and `setup_s` are gated, and under glibc's defaults they depend on
/// allocation history and thread timing: over six seeds `peak_rss_mb`
/// spread by 6-19 % (bound 5 %) against 0-2 % with these settings, and
/// `setup_s` of `array-bulk` was bimodal (README, "The allocator"). The
/// gated ratio, `abstraction_cost_x`, reads the same either way.
const MALLOC_TUNABLES: &str = "glibc.malloc.tcache_count=0:glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=1073741824";
/// The first glibc that reads `glibc.malloc.*` from `GLIBC_TUNABLES`.
const MIN_GLIBC: (u32, u32) = (2, 26);

/// Replaces this process by itself with [`MALLOC_TUNABLES`] in the
/// environment, unless it already runs that way. Fails where the
/// settings would be ignored: results from such a host would not be
/// comparable with any other.
fn pin_allocator() -> Result<(), String> {
    use std::os::unix::process::CommandExt as _;
    match host::glibc_version() {
        Some(v) if v >= MIN_GLIBC => {}
        Some((major, minor)) => {
            return Err(format!(
                "glibc {major}.{minor} ignores GLIBC_TUNABLES={MALLOC_TUNABLES}; the benchmark needs {}.{} or later",
                MIN_GLIBC.0, MIN_GLIBC.1
            ))
        }
        None => {
            return Err(format!(
                "not running on glibc: GLIBC_TUNABLES={MALLOC_TUNABLES} cannot be applied"
            ))
        }
    }
    if std::env::var_os("GLIBC_TUNABLES").is_some_and(|v| v == MALLOC_TUNABLES) {
        return Ok(());
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let err = std::process::Command::new(&exe)
        .args(std::env::args_os().skip(1))
        .env("GLIBC_TUNABLES", MALLOC_TUNABLES)
        .exec();
    Err(format!("cannot re-execute {}: {err}", exe.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Command::List) => {
            list();
            ExitCode::SUCCESS
        }
        Ok(Command::PrintManifest) => {
            print!("{}", metrics::manifest().pretty());
            ExitCode::SUCCESS
        }
        Ok(Command::CheckManifest(path)) => match metrics::check_manifest(&path) {
            Ok(diffs) if diffs.is_empty() => {
                println!("{path} matches the metric table");
                ExitCode::SUCCESS
            }
            Ok(diffs) => {
                diffs.iter().for_each(|d| println!("{d}"));
                ExitCode::from(1)
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(REFUSED)
            }
        },
        Ok(Command::Compare(a, b)) => match compare::run(&a, &b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(REFUSED)
            }
        },
        Ok(Command::Run { workload, opts }) => run(&workload, &opts),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(REFUSED)
        }
    }
}

enum Command {
    List,
    PrintManifest,
    CheckManifest(String),
    Compare(PathBuf, PathBuf),
    Run { workload: String, opts: Opts },
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        traced: false,
        quick: false,
        selftest_corrupt: false,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--list" => return Ok(Command::List),
            "--print-manifest" => return Ok(Command::PrintManifest),
            "--check-manifest" => return Ok(Command::CheckManifest(value("a file")?)),
            "--compare" => {
                return Ok(Command::Compare(
                    value("two directories")?.into(),
                    value("two directories")?.into(),
                ))
            }
            "--workload" => workload = Some(value("a name")?),
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                opts.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--out" => opts.out_dir = value("a directory")?.into(),
            "--quick" => opts.quick = true,
            "--selftest-corrupt" => opts.selftest_corrupt = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {workload}; one of: {}",
            names.join(", ")
        ));
    }
    Ok(Command::Run { workload, opts })
}

fn list() {
    println!("workloads:");
    for w in WORKLOADS {
        println!("  {:<18} {}", w.name, w.why);
    }
    println!("metrics:");
    for m in metrics::METRICS {
        let class = match m.class {
            Class::EndToEnd { bound } => format!("end-to-end, bound {:.0}%", bound * 100.0),
            Class::PerLayer { exact: true } => "per-layer, exact count".to_string(),
            Class::PerLayer { exact: false } => "per-layer".to_string(),
            Class::Derived => "derived".to_string(),
        };
        println!(
            "  {:<34} {:<6} {:<7} {class}",
            m.name,
            m.unit,
            format!("{:?}", m.better).to_lowercase()
        );
    }
}

fn run(workload: &str, opts: &Opts) -> ExitCode {
    if host::cores() < P_PAR {
        eprintln!(
            "this host has {} core(s); the benchmark needs {P_PAR}: locations spin while they wait",
            host::cores()
        );
        return ExitCode::from(REFUSED);
    }
    let set = host::stapl_env_vars();
    if !set.is_empty() {
        eprintln!(
            "refusing to measure with {} set: the numbers must be those of RtsConfig::default()",
            set.join(", ")
        );
        return ExitCode::from(REFUSED);
    }
    if let Err(e) = pin_allocator() {
        eprintln!("{e}");
        return ExitCode::from(REFUSED);
    }
    let report = match workload {
        "array-bulk" => harness::run::<workloads::array_bulk::ArrayBulk>(opts),
        "rmi-writes" => harness::run::<workloads::rmi_writes::RmiWrites>(opts),
        "rmi-reads" => harness::run::<workloads::rmi_reads::RmiReads>(opts),
        "dynamic-graph-kv" => harness::run::<workloads::dynamic_graph_kv::DynamicGraphKv>(opts),
        other => unreachable!("parse() admitted workload {other}"),
    };
    emit(workload, opts, report)
}

/// Prints the metrics for people, writes the result file, and prints the
/// result line the driver reads — last.
fn emit(workload: &str, opts: &Opts, report: Report) -> ExitCode {
    let Report {
        mut correct,
        mut attempted,
        mut failed,
        values,
        extra,
        ..
    } = report;
    println!(
        "# {workload} seed={} trace={} seconds={}{}",
        opts.seed,
        u8::from(opts.traced),
        opts.seconds,
        if opts.quick {
            " QUICK (not comparable)"
        } else {
            ""
        }
    );
    for m in metrics::METRICS {
        if let Some(v) = values.get(m.name) {
            let note = match m.class {
                Class::EndToEnd { bound } => format!("  (bound {:.0}%)", bound * 100.0),
                Class::Derived => "  (derived)".to_string(),
                Class::PerLayer { .. } => String::new(),
            };
            println!("{:<34} {:>16.6} {}{note}", m.name, v, m.unit);
        }
    }
    for (k, v) in extra.iter().filter(|(k, _)| *k != "per_instance") {
        println!("{k}: {}", v.render());
    }

    // With --trace 0 the metrics are every end-to-end metric, with
    // --trace 1 every per-layer metric; one that is missing or not
    // finite is a failed operation.
    let gated = if opts.traced {
        values.to_json(metrics::per_layer())
    } else {
        values.to_json(metrics::end_to_end())
    };
    let gated = gated.unwrap_or_else(|e| {
        eprintln!("{e}");
        correct = false;
        attempted += 1;
        failed += 1;
        Json::Obj(Vec::new())
    });

    let mut all = gated.as_obj().expect("an object").to_vec();
    if let Ok(Json::Obj(d)) =
        values.to_json(metrics::derived_metrics().filter(|m| values.get(m.name).is_some()))
    {
        all.extend(d);
    }
    let mut file = vec![
        ("workload", Json::str(workload)),
        ("seed", Json::Num(opts.seed as f64)),
        ("trace", Json::Num(f64::from(u8::from(opts.traced)))),
        ("seconds", Json::Num(opts.seconds)),
        ("quick", Json::Bool(opts.quick)),
        ("GLIBC_TUNABLES", Json::str(MALLOC_TUNABLES)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(all)),
    ];
    file.extend(extra);
    let path = opts.out_dir.join(format!(
        "{workload}-s{}-t{}.json",
        opts.seed,
        u8::from(opts.traced)
    ));
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&path, Json::obj(file).pretty()))
    {
        eprintln!("cannot write {}: {e}", path.display());
    }

    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", gated),
    ]);
    println!("{}", line.render());
    let _ = std::io::stdout().flush();
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
