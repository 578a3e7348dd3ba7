//! What a result needs beside its numbers: where it ran, on which
//! source, how much memory it took, and how fast the machine was.

use crate::stats;
use lmds_serve::json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The kernel's time (ms) on the reference machine, a quiet 2-core
/// Xeon at 2.1 GHz. Normalized timings read as milliseconds there.
pub const REFERENCE_MS: f64 = 5.0;

/// The machine reference: breadth-first search over a fixed 512×512
/// grid held in the benchmark's own CSR arrays, so no change to the
/// library can move it.
///
/// The benchmark shares its machine, and neighbours slow it by up to
/// 40% for seconds at a time; the kernel slows by about the same
/// factor. So each end-to-end timing is taken between two kernel
/// samples and scaled by `REFERENCE_MS / mean(before, after)`: what the
/// operation would have taken on the quiet reference machine. A slower
/// program still reads slower — the kernel runs none of its code —
/// while a busier machine does not. Raw times go to the provenance line.
pub struct Calibration {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    dist: Vec<u32>,
    queue: Vec<u32>,
    samples: Vec<f64>,
}

impl Calibration {
    const SIDE: usize = 512;

    pub fn new() -> Self {
        let side = Self::SIDE;
        let mut offsets = vec![0u32];
        let mut targets = Vec::new();
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                if r > 0 {
                    targets.push((v - side) as u32);
                }
                if c > 0 {
                    targets.push((v - 1) as u32);
                }
                if c + 1 < side {
                    targets.push((v + 1) as u32);
                }
                if r + 1 < side {
                    targets.push((v + side) as u32);
                }
                offsets.push(targets.len() as u32);
            }
        }
        let n = side * side;
        Calibration {
            offsets,
            targets,
            dist: vec![0; n],
            queue: Vec::with_capacity(n),
            samples: Vec::new(),
        }
    }

    /// Times one BFS from each of two corners and records it (ms).
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let mut far = 0u32;
        for source in [0, self.dist.len() - 1] {
            self.dist.fill(u32::MAX);
            self.queue.clear();
            self.dist[source] = 0;
            self.queue.push(source as u32);
            let mut head = 0;
            while head < self.queue.len() {
                let u = self.queue[head] as usize;
                head += 1;
                let du = self.dist[u];
                far = far.max(du);
                for &w in &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize] {
                    if self.dist[w as usize] == u32::MAX {
                        self.dist[w as usize] = du + 1;
                        self.queue.push(w);
                    }
                }
            }
        }
        std::hint::black_box(far);
        let ms = stats::ms(t.elapsed());
        self.samples.push(ms);
        ms
    }

    pub fn median_ms(&self) -> f64 {
        stats::median(&self.samples)
    }

    /// Scales a timing taken since the previous sample to the reference
    /// machine, sampling the kernel again to close the interval.
    pub fn normalize(&mut self, raw: f64) -> f64 {
        let before = *self.samples.last().expect("a sample precedes every timed interval");
        let after = self.sample();
        raw * REFERENCE_MS / ((before + after) / 2.0)
    }
}

/// Machine and source provenance, recorded with every result.
pub fn provenance() -> BTreeMap<String, Value> {
    let mut p = BTreeMap::new();
    p.insert("git_rev".into(), Value::from(git_rev()));
    p.insert("source_fnv".into(), Value::from(format!("{:016x}", source_fingerprint())));
    p.insert("cpus_online".into(), cpus_online().map_or(Value::Null, Value::from));
    p.insert(
        "available_parallelism".into(),
        Value::from(std::thread::available_parallelism().map_or(1, |c| c.get())),
    );
    p
}

/// The checked-out commit, when the benchmark runs inside a git
/// working tree; exported trees report `"none"` and rely on
/// `source_fnv`.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    if let Some(reference) = head.strip_prefix("ref: ") {
        if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
            return rev.trim().to_string();
        }
        let packed = std::fs::read_to_string(".git/packed-refs").unwrap_or_default();
        if let Some(line) = packed.lines().find(|l| l.ends_with(reference)) {
            return line.split(' ').next().unwrap_or("none").to_string();
        }
    } else if !head.is_empty() {
        return head.to_string();
    }
    "none".into()
}

/// FNV-1a over every file under `crates/` (paths and contents, in
/// sorted order): identifies the measured source even where no git
/// metadata exists.
fn source_fingerprint() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f.to_string_lossy().as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    h
}

/// Online CPUs as the kernel lists them (`0-1` ⟹ 2).
fn cpus_online() -> Option<usize> {
    let list = std::fs::read_to_string("/sys/devices/system/cpu/online").ok()?;
    let mut count = 0;
    for part in list.trim().split(',') {
        count += match part.split_once('-') {
            Some((a, b)) => b.parse::<usize>().ok()? - a.parse::<usize>().ok()? + 1,
            None => 1,
        };
    }
    Some(count)
}
