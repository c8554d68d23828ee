//! The one wait loop, the one clock and the one rendezvous
//! (`Location::wait_until`, `Location::now`, `PollBarrier::rendezvous`):
//! no library code waits or reads the clock anywhere else; every wait, even
//! a single `is_ready` probe, learns of a panicked peer, and `execute`
//! re-raises the panic that came first; and what a collective's rendezvous
//! publishes is gone before the next collective starts.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use stapl_rts::{execute, RtsConfig};

/// A panic payload's message.
fn message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p.downcast_ref::<&str>().map_or("<non-string panic payload>", |s| s).to_string(),
    }
}

/// A caller that polls `is_ready` in its own loop, instead of calling `get`,
/// is told of a dead peer too, rather than spinning forever.
#[test]
#[should_panic(expected = "location 1 dies without replying")]
fn is_ready_reports_a_panicked_peer() {
    let reported = Mutex::new(None);
    let run = catch_unwind(AssertUnwindSafe(|| {
        execute(RtsConfig::default(), 2, |loc| {
            if loc.id() == 1 {
                panic!("location 1 dies without replying");
            }
            // A reply only location 1 could have sent.
            let (_token, fut) = loc.make_reply_slot::<u64>();
            let start = Instant::now();
            let probe = catch_unwind(AssertUnwindSafe(|| {
                while start.elapsed() < Duration::from_secs(10) {
                    assert!(!fut.is_ready(), "nobody replied");
                }
            }));
            *reported.lock().unwrap() = probe.err().map(message);
        })
    }));
    let why = reported.into_inner().unwrap().expect("is_ready spun for 10 s without noticing that location 1 is gone");
    // Not `why` in the message: it holds the text this test expects.
    assert!(why.contains("peer location panicked") && why.contains("location 1 dies"), "is_ready's abort names no peer");
    // What `execute` re-raises is location 1's panic.
    resume_unwind(run.expect_err("location 1's panic propagates"))
}

/// Location 1 panics and exits; location 0, which never waited meanwhile,
/// then sends to it, and its flush fails because location 1's channel hung
/// up. `execute` must re-raise location 1's panic, the cause, not location
/// 0's report of the hang-up.
#[test]
fn execute_reraises_the_first_panic_not_a_peers_hang_up() {
    let err = catch_unwind(AssertUnwindSafe(|| {
        execute(RtsConfig::unbuffered(), 2, |loc| {
            if loc.id() == 1 {
                panic!("boom");
            }
            let (h, _rep) = loc.register(());
            std::thread::sleep(Duration::from_millis(100));
            loc.async_rmi(1, h, |_: &(), _| ());
            loc.rmi_fence();
        })
    }))
    .expect_err("location 1's panic must propagate");
    let msg = message(err);
    assert!(msg.contains("boom"), "re-raised {msg}");
}

/// A collective payload that counts its live copies.
struct Payload {
    v: u64,
    live: Arc<AtomicIsize>,
}

impl Payload {
    fn new(v: u64, live: &Arc<AtomicIsize>) -> Self {
        live.fetch_add(1, Ordering::SeqCst);
        Payload { v, live: live.clone() }
    }
}

impl Clone for Payload {
    fn clone(&self) -> Self {
        Payload::new(self.v, &self.live)
    }
}

impl Drop for Payload {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Once every location has dropped the copy a collective returned to it,
/// no copy is left anywhere — the rendezvous's own is gone too — and that
/// holds before any location starts the next collective: a result kept
/// until the next collective overwrites it would double `peak_rss_mb` for
/// a large `allgather`.
#[test]
fn a_collective_result_does_not_outlive_the_collective() {
    for p in [1usize, 3] {
        let live = Arc::new(AtomicIsize::new(0));
        let dropped = AtomicUsize::new(0);
        execute(RtsConfig::default(), p, |loc| {
            // Waits, outside the runtime, for every location to drop its
            // copy of collective `k`, then counts what is left.
            let settled = |k: usize| {
                dropped.fetch_add(1, Ordering::SeqCst);
                while dropped.load(Ordering::SeqCst) < p * (k + 1) {
                    std::thread::yield_now();
                }
                assert_eq!(live.load(Ordering::SeqCst), 0, "P={p}: collective {k} left a copy behind");
                loc.barrier();
            };
            let me = loc.id() as u64;
            for round in 0..10 {
                let sum = loc.allreduce(Payload::new(me, &live), |a, b| Payload::new(a.v + b.v, &a.live));
                assert_eq!(sum.v, (0..p as u64).sum::<u64>());
                drop(sum);
                settled(2 * round);
                let all = loc.allgather(Payload::new(me, &live));
                assert_eq!(all.iter().map(|x| x.v).collect::<Vec<_>>(), (0..p as u64).collect::<Vec<_>>());
                drop(all);
                settled(2 * round + 1);
            }
        });
    }
}

/// Where the library may relax, spin, park or read the clock: `(file,
/// enclosing fn, token)`. Everything else waits through
/// `Location::wait_until` (its loop `spin`) and reads `Location::now`, so a
/// scheduler that owns those two owns every wait and every timestamp of a
/// run. The two parks are outside any run: a pooled location thread between
/// jobs, and `execute` until its peers' jobs have reported.
const SEAM: &[(&str, &str, &str)] = &[
    ("rts/src/location.rs", "now", ".elapsed()"),
    ("rts/src/spmd.rs", "execute_collect_traced", "Instant::now"),
    ("rts/src/location.rs", "spin", "yield_now"),
    ("rts/src/location.rs", "spin", "spin_loop"),
    ("rts/src/fault.rs", "busy_wait", "spin_loop"),
    ("rts/src/spmd.rs", "spawn", "thread::park"),
    ("rts/src/spmd.rs", "drop", "thread::park"),
];

/// The name of the `fn` whose signature is the last one at or above line
/// `i`.
fn enclosing_fn<'a>(lines: &[&'a str], i: usize) -> &'a str {
    lines[..=i]
        .iter()
        .rev()
        .find_map(|l| {
            let t = l.trim_start();
            let t = t.strip_prefix("pub(crate) ").or_else(|| t.strip_prefix("pub ")).unwrap_or(t);
            let name = t.strip_prefix("fn ")?;
            Some(&name[..name.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(name.len())])
        })
        .unwrap_or("<none>")
}

/// A source scan, not clippy's `disallowed-methods`: that would need an
/// `allow` in the test module of every crate, where sleeping and spinning
/// are fine.
#[test]
fn library_code_waits_and_reads_the_clock_only_at_the_seam() {
    const TOKENS: [&str; 6] = ["yield_now", "spin_loop", "thread::sleep", "thread::park", "Instant::now", ".elapsed()"];
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut found = Vec::new();
    for krate in ["rts", "core", "containers", "views", "algorithms", "paragraph"] {
        let dir = crates.join(krate).join("src");
        for entry in std::fs::read_dir(&dir).expect("crate sources") {
            let path = entry.expect("directory entry").path();
            if path.extension().and_then(|e| e.to_str()) != Some("rs") {
                continue;
            }
            let file = format!("{krate}/src/{}", path.file_name().unwrap().to_string_lossy());
            let text = std::fs::read_to_string(&path).expect("readable source");
            let library = text.split("\n#[cfg(test)]\nmod ").next().unwrap_or_default();
            let lines: Vec<&str> = library.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                if line.trim_start().starts_with("//") {
                    continue;
                }
                for token in TOKENS.into_iter().filter(|t| line.contains(t)) {
                    found.push((file.clone(), enclosing_fn(&lines, i).to_string(), token, i + 1));
                }
            }
        }
    }
    let strays: Vec<String> = found
        .iter()
        .filter(|(file, f, token, _)| !SEAM.contains(&(file.as_str(), f.as_str(), *token)))
        .map(|(file, f, token, line)| format!("`{token}` at crates/{file}:{line} in fn {f}"))
        .collect();
    assert!(
        strays.is_empty(),
        "wait through `Location::wait_until` and read the clock through `Location::now`: {strays:#?}"
    );
    for site in SEAM {
        assert!(
            found.iter().any(|(file, f, token, _)| (file.as_str(), f.as_str(), *token) == *site),
            "the seam site {site:?} is gone: update SEAM"
        );
    }
}
