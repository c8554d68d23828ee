//! What the benchmark reads from the host: core count, peak memory, and
//! how much CPU other processes took while it ran.

use crate::json::Json;

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Names of set `STAPL_*` variables: `RtsConfig::default()` reads them,
/// so a run with any of them set would not measure the shipped defaults.
pub fn stapl_env_vars() -> Vec<String> {
    let mut v: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("STAPL_"))
        .collect();
    v.sort();
    v
}

/// (major, minor) of the glibc this process runs on; `None` elsewhere.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn glibc_version() -> Option<(u32, u32)> {
    extern "C" {
        fn gnu_get_libc_version() -> *const std::ffi::c_char;
    }
    // SAFETY: glibc returns a pointer to a static NUL-terminated string.
    let version = unsafe { std::ffi::CStr::from_ptr(gnu_get_libc_version()) };
    let mut parts = version.to_str().ok()?.split('.');
    Some((parts.next()?.parse().ok()?, parts.next()?.parse().ok()?))
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn glibc_version() -> Option<(u32, u32)> {
    None
}

fn status_kib(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse::<f64>().ok()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    status_kib("VmHWM:").map(|k| k / 1024.0)
}

/// Jiffies from the first line of `/proc/stat`: (all, idle + iowait, steal).
fn cpu_jiffies() -> Option<(f64, f64, f64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let f: Vec<f64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    if f.len() < 8 {
        return None;
    }
    // user nice system idle iowait irq softirq steal (guest time is in user)
    Some((f[..8].iter().sum(), f[3] + f[4], f[7]))
}

/// utime + stime of this process, in jiffies.
fn self_jiffies() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the name.
    let rest = text.rsplit_once(')')?.1;
    let f: Vec<&str> = rest.split_whitespace().collect();
    Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
}

fn loadavg1() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Snapshot taken at the start of a run; [`Disturbance::finish`] turns it
/// into the shares reported beside the metrics.
pub struct Disturbance {
    cpu: Option<(f64, f64, f64)>,
    own: Option<f64>,
    load_before: Option<f64>,
}

impl Disturbance {
    pub fn start() -> Self {
        Disturbance {
            cpu: cpu_jiffies(),
            own: self_jiffies(),
            load_before: loadavg1(),
        }
    }

    /// Shares of all CPU time since [`Disturbance::start`]: stolen by the
    /// hypervisor, used by other processes, and idle.
    pub fn finish(&self) -> Json {
        let mut pairs = vec![("cores", Json::Num(cores() as f64))];
        if let (Some((a0, i0, s0)), Some((a1, i1, s1)), Some(o0), Some(o1)) =
            (self.cpu, cpu_jiffies(), self.own, self_jiffies())
        {
            let all = (a1 - a0).max(1.0);
            let busy = all - (i1 - i0) - (s1 - s0);
            pairs.push(("steal_share", Json::Num((s1 - s0) / all)));
            pairs.push((
                "other_cpu_share",
                Json::Num((busy - (o1 - o0)).max(0.0) / all),
            ));
            pairs.push(("idle_share", Json::Num((i1 - i0) / all)));
        }
        if let Some(l) = self.load_before {
            pairs.push(("loadavg1_before", Json::Num(l)));
        }
        if let Some(l) = loadavg1() {
            pairs.push(("loadavg1_after", Json::Num(l)));
        }
        Json::obj(pairs)
    }
}
