//! The result cache: exact memoization of served solutions.
//!
//! Every solver in the registry is deterministic for a fixed
//! `(graph, solver, config)` triple (PAPER.md §4's Algorithm 1 included
//! — its pipeline, tie-breaks, and id policies are all seeded), so a
//! cached [`SolutionView`] is *exact*, not approximate: serving it is
//! indistinguishable from re-running the solver, minus the latency.
//! Keys are [`CacheKey`] = the corpus entry's FNV-1a structural
//! checksum, the solver key, and the canonical configuration
//! fingerprint ([`crate::proto::config_fingerprint`]) — so a re-upload
//! of a graph under the same name with different content misses, while
//! two requests spelling the same effective config differently hit.
//!
//! # Eviction
//!
//! Bounded LRU on two budgets at once: an entry-count cap and a byte
//! budget (sizes estimated by [`entry_cost`]). Whichever budget is
//! exceeded first evicts from the least-recently-used end. A cache
//! constructed with either budget at zero is disabled: [`ResultCache::get`]
//! always misses and [`ResultCache::insert`] is a no-op.
//!
//! # Persistence
//!
//! [`ResultCache::save`] serializes the live entries (least-recently
//! used first, so reloading replays the recency order) into a single
//! JSON document written tmp-then-rename beside the corpus snapshots;
//! [`ResultCache::load`] restores it so a restarted daemon starts with
//! a warm cache — the ROADMAP's "result store" seed. Hit/miss/eviction
//! *counters* live in [`crate::metrics::Metrics`]; this type only
//! reports its live gauges via [`ResultCache::stats`].

use crate::json::{self, Value};
use crate::proto::{parse_solution, render_solution};
use lmds_api::SolutionView;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Mutex;

/// File name of the persisted cache, stored beside the `*.lmdsg`
/// corpus snapshots in the persistence directory.
pub const CACHE_FILE: &str = "results-cache.json";

/// Schema version stamped into the persisted document; a mismatch is
/// refused loudly rather than misread.
const CACHE_VERSION: u64 = 1;

/// The identity of one cached solve.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Structural checksum of the graph
    /// ([`lmds_graph::io::graph_checksum`]) — content identity, not
    /// name identity.
    pub graph_checksum: u64,
    /// Registry solver key.
    pub solver: String,
    /// Canonical JSON fingerprint of the materialized config
    /// ([`crate::proto::config_fingerprint`]).
    pub config_fingerprint: String,
}

/// Estimated resident cost of one cache entry in bytes: the key
/// strings, the solution's vertex vector, its owned strings, and a
/// fixed overhead for the bookkeeping structs. An estimate — the byte
/// budget bounds growth, it does not meter the allocator.
pub fn entry_cost(key: &CacheKey, view: &SolutionView) -> usize {
    key.solver.len()
        + key.config_fingerprint.len()
        + view.vertices.len() * std::mem::size_of::<usize>()
        + view.solver.len()
        + view.problem.len()
        + view.mode.len()
        + 160
}

struct Entry {
    view: SolutionView,
    bytes: usize,
    tick: u64,
}

struct Inner {
    map: HashMap<CacheKey, Entry>,
    /// Recency index: tick → key, oldest first. Ticks are unique.
    lru: BTreeMap<u64, CacheKey>,
    tick: u64,
    bytes: usize,
}

/// The bounded LRU result cache. One instance per server, shared by
/// the sync fast path (HTTP handlers) and the worker pool.
pub struct ResultCache {
    inner: Mutex<Inner>,
    max_entries: usize,
    max_bytes: usize,
}

/// Live cache gauges for `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently held.
    pub entries: usize,
    /// Estimated resident bytes currently held.
    pub bytes: usize,
    /// The entry-count budget (0 = cache disabled).
    pub max_entries: usize,
    /// The byte budget (0 = cache disabled).
    pub max_bytes: usize,
}

impl ResultCache {
    /// A cache bounded by `max_entries` entries and `max_bytes`
    /// estimated bytes. Either budget at zero disables caching
    /// entirely.
    pub fn new(max_entries: usize, max_bytes: usize) -> Self {
        ResultCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                lru: BTreeMap::new(),
                tick: 0,
                bytes: 0,
            }),
            max_entries,
            max_bytes,
        }
    }

    /// Whether this cache stores anything at all.
    pub fn is_enabled(&self) -> bool {
        self.max_entries > 0 && self.max_bytes > 0
    }

    /// Looks up `key`, refreshing its recency on a hit. The caller
    /// records the hit/miss counter — this type is pure storage.
    pub fn get(&self, key: &CacheKey) -> Option<SolutionView> {
        if !self.is_enabled() {
            return None;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        let tick = inner.tick + 1;
        inner.tick = tick;
        let entry = inner.map.get_mut(key)?;
        let old_tick = std::mem::replace(&mut entry.tick, tick);
        let view = entry.view.clone();
        inner.lru.remove(&old_tick);
        inner.lru.insert(tick, key.clone());
        Some(view)
    }

    /// Stores (or refreshes) `key → view`, then evicts from the LRU end
    /// until both budgets hold. Returns how many entries were evicted.
    /// No-op (returning 0) on a disabled cache.
    pub fn insert(&self, key: CacheKey, view: SolutionView) -> usize {
        if !self.is_enabled() {
            return 0;
        }
        let bytes = entry_cost(&key, &view);
        let mut inner = self.inner.lock().expect("cache lock");
        let tick = inner.tick + 1;
        inner.tick = tick;
        if let Some(old) = inner.map.remove(&key) {
            inner.lru.remove(&old.tick);
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        inner.lru.insert(tick, key.clone());
        inner.map.insert(key, Entry { view, bytes, tick });
        let mut evicted = 0;
        while inner.map.len() > self.max_entries || inner.bytes > self.max_bytes {
            let Some((&oldest, _)) = inner.lru.iter().next() else { break };
            let key = inner.lru.remove(&oldest).expect("lru entry");
            let entry = inner.map.remove(&key).expect("lru key is mapped");
            inner.bytes -= entry.bytes;
            evicted += 1;
        }
        evicted
    }

    /// Drops every entry of the graph content `checksum`, which the
    /// server calls once no stored graph holds that content: no request
    /// can reach those entries any more, and they would otherwise sit in
    /// the budgets until the LRU end pushed them out. Returns how many
    /// entries were dropped.
    pub fn forget_graph(&self, checksum: u64) -> usize {
        let mut inner = self.inner.lock().expect("cache lock");
        let Inner { map, lru, bytes, .. } = &mut *inner;
        let before = map.len();
        map.retain(|key, entry| {
            let keep = key.graph_checksum != checksum;
            if !keep {
                lru.remove(&entry.tick);
                *bytes -= entry.bytes;
            }
            keep
        });
        before - map.len()
    }

    /// Live gauges.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            entries: inner.map.len(),
            bytes: inner.bytes,
            max_entries: self.max_entries,
            max_bytes: self.max_bytes,
        }
    }

    /// Serializes the cache (least-recently-used first) and writes it
    /// tmp-then-rename as `dir/`[`CACHE_FILE`]. A disabled cache writes
    /// nothing.
    ///
    /// # Errors
    ///
    /// I/O failures, as text.
    pub fn save(&self, dir: &Path) -> Result<(), String> {
        if !self.is_enabled() {
            return Ok(());
        }
        let doc = {
            let inner = self.inner.lock().expect("cache lock");
            let entries: Vec<Value> = inner
                .lru
                .values()
                .map(|key| {
                    let entry = &inner.map[key];
                    Value::obj([
                        ("checksum", Value::from(format!("{:#018x}", key.graph_checksum))),
                        ("solver", Value::from(key.solver.as_str())),
                        ("config", Value::from(key.config_fingerprint.as_str())),
                        ("solution", render_solution(&entry.view)),
                    ])
                })
                .collect();
            Value::obj([("version", Value::from(CACHE_VERSION)), ("entries", Value::Arr(entries))])
        };
        crate::corpus::atomic_write(&dir.join(CACHE_FILE), doc.render().as_bytes())
            .map_err(|e| format!("cache persistence: {e}"))
    }

    /// Loads `dir/`[`CACHE_FILE`] into this cache, replaying the
    /// persisted recency order (so the budgets evict the same entries
    /// they would have). A missing file is an empty cache; a present
    /// but unreadable one is a loud error — same contract as the
    /// corpus. Returns how many entries were restored.
    ///
    /// # Errors
    ///
    /// I/O, JSON, or schema failures, as text.
    pub fn load(&self, dir: &Path) -> Result<usize, String> {
        if !self.is_enabled() {
            return Ok(0);
        }
        let path = dir.join(CACHE_FILE);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(format!("cache file {}: {e}", path.display())),
        };
        let text = std::str::from_utf8(&bytes)
            .map_err(|_| format!("cache file {}: not UTF-8", path.display()))?;
        let doc = json::parse(text).map_err(|e| format!("cache file {}: {e}", path.display()))?;
        if doc.get("version").and_then(Value::as_u64) != Some(CACHE_VERSION) {
            return Err(format!("cache file {}: unsupported schema version", path.display()));
        }
        let entries =
            doc.get("entries").and_then(Value::as_arr).ok_or("cache file lacks entries")?;
        let mut restored = 0;
        for item in entries {
            let checksum = item
                .get("checksum")
                .and_then(Value::as_str)
                .and_then(|s| s.strip_prefix("0x"))
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or("cache entry lacks a hex checksum")?;
            let solver = item
                .get("solver")
                .and_then(Value::as_str)
                .ok_or("cache entry lacks a solver key")?
                .to_string();
            let config_fingerprint = item
                .get("config")
                .and_then(Value::as_str)
                .ok_or("cache entry lacks a config fingerprint")?
                .to_string();
            let view = parse_solution(item.get("solution").ok_or("cache entry lacks a solution")?)?;
            self.insert(CacheKey { graph_checksum: checksum, solver, config_fingerprint }, view);
            restored += 1;
        }
        Ok(restored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(n_vertices: usize) -> SolutionView {
        SolutionView {
            solver: "mds/exact".into(),
            problem: "mds".into(),
            mode: "centralized".into(),
            size: n_vertices,
            vertices: (0..n_vertices).collect(),
            valid: true,
            rounds: None,
            total_message_bits: None,
            max_message_bits: None,
            wall_micros: 42,
            ratio: None,
            optimum: Some((n_vertices, true)),
            fault: None,
        }
    }

    fn key(i: u64) -> CacheKey {
        CacheKey { graph_checksum: i, solver: "mds/exact".into(), config_fingerprint: "{}".into() }
    }

    #[test]
    fn hit_miss_and_lru_eviction_by_count() {
        let cache = ResultCache::new(2, usize::MAX);
        assert!(cache.get(&key(1)).is_none(), "cold cache misses");
        assert_eq!(cache.insert(key(1), view(3)), 0);
        assert_eq!(cache.insert(key(2), view(4)), 0);
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(cache.get(&key(1)).unwrap().size, 3);
        assert_eq!(cache.insert(key(3), view(5)), 1, "over the entry cap evicts one");
        assert!(cache.get(&key(2)).is_none(), "the untouched entry was evicted");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn byte_budget_bounds_resident_size() {
        let per_entry = entry_cost(&key(1), &view(10));
        let cache = ResultCache::new(usize::MAX, per_entry * 3 + per_entry / 2);
        for i in 0..50 {
            cache.insert(key(i), view(10));
            let stats = cache.stats();
            assert!(stats.bytes <= stats.max_bytes, "resident {} > budget", stats.bytes);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 3, "budget holds exactly three entries");
        assert!(cache.get(&key(49)).is_some(), "most recent entries survive");
        assert!(cache.get(&key(0)).is_none());
    }

    #[test]
    fn reinserting_a_key_replaces_without_double_counting() {
        let cache = ResultCache::new(8, usize::MAX);
        cache.insert(key(1), view(4));
        let before = cache.stats();
        cache.insert(key(1), view(4));
        assert_eq!(cache.stats(), before, "idempotent reinsert");
        cache.insert(key(1), view(9));
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.get(&key(1)).unwrap().size, 9, "newest value wins");
    }

    #[test]
    fn forgetting_a_graph_drops_only_its_entries() {
        let cache = ResultCache::new(8, 1 << 20);
        let other = CacheKey { solver: "mds/algorithm1".into(), ..key(1) };
        for k in [key(1), other.clone(), key(2)] {
            cache.insert(k, view(3));
        }
        let bytes = cache.stats().bytes;
        assert_eq!(cache.forget_graph(1), 2);
        assert!(cache.get(&key(1)).is_none() && cache.get(&other).is_none());
        assert!(cache.get(&key(2)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, entry_cost(&key(2), &view(3)));
        assert!(stats.bytes < bytes);
        assert_eq!(cache.forget_graph(7), 0);
        // The recency index lost the forgotten ticks: filling the cache
        // evicts live entries only.
        for i in 10..17 {
            cache.insert(key(i), view(1));
        }
        assert_eq!(cache.insert(key(17), view(1)), 1);
        assert!(cache.get(&key(2)).is_none(), "the oldest live entry went first");
    }

    #[test]
    fn zero_budget_disables_the_cache() {
        for cache in [ResultCache::new(0, 1024), ResultCache::new(1024, 0)] {
            assert!(!cache.is_enabled());
            assert_eq!(cache.insert(key(1), view(2)), 0);
            assert!(cache.get(&key(1)).is_none());
            assert_eq!(cache.stats().entries, 0);
        }
    }

    #[test]
    fn persistence_round_trips_entries_and_recency() {
        let dir = std::env::temp_dir().join(format!("lmds-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let cache = ResultCache::new(8, usize::MAX);
        cache.insert(key(1), view(2));
        cache.insert(key(2), view(3));
        cache.get(&key(1)); // 2 is now least recent
        cache.save(&dir).unwrap();

        let reloaded = ResultCache::new(8, usize::MAX);
        assert_eq!(reloaded.load(&dir).unwrap(), 2);
        assert_eq!(reloaded.get(&key(1)).unwrap(), view(2));
        assert_eq!(reloaded.get(&key(2)).unwrap(), view(3));

        // Recency replay: a 1-entry cache reloading the same file keeps
        // the most recently used entry (key 1), not the insertion-order
        // tail.
        let tiny = ResultCache::new(1, usize::MAX);
        tiny.load(&dir).unwrap();
        assert!(tiny.get(&key(1)).is_some(), "MRU entry survives the tiny reload");
        assert!(tiny.get(&key(2)).is_none());

        // A missing file is fine; a corrupt one is loud.
        let empty = ResultCache::new(8, usize::MAX);
        assert_eq!(empty.load(&dir.join("nowhere")).unwrap(), 0);
        std::fs::write(dir.join(CACHE_FILE), b"junk").unwrap();
        assert!(ResultCache::new(8, usize::MAX).load(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
