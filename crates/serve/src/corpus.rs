//! The named-graph corpus store: clients upload a graph once, then run
//! many solvers against it by name.
//!
//! Graphs live behind `Arc` so in-flight jobs keep a consistent graph
//! even if the name is re-uploaded mid-run. With a persistence
//! directory configured, every accepted upload is flushed to a
//! schema-versioned binary snapshot file
//! ([`lmds_graph::io::to_snapshot`]) named `<name>.lmdsg`, and a fresh
//! server re-loads the whole corpus on startup — the std-only analogue
//! of a database layer.

use lmds_api::Instance;
use lmds_graph::dynamic::{DynamicGraph, GraphUpdate, UpdateStats};
use lmds_graph::io::{from_edge_list, from_snapshot, graph_checksum, is_snapshot, to_snapshot};
use lmds_graph::Graph;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

/// File extension of persisted snapshots.
pub const SNAPSHOT_EXT: &str = "lmdsg";

/// One stored graph, pre-packaged as a solver [`Instance`] (sequential
/// identifier assignment; LOCAL scenarios override ids per request via
/// the config's id policy) so workers solve straight off the shared
/// entry without cloning the graph per job.
#[derive(Debug, Clone)]
pub struct GraphEntry {
    /// The ready-to-solve instance (its name is the corpus name).
    pub instance: Arc<Instance>,
    /// Structural checksum ([`graph_checksum`]); part of the identity
    /// key, so clients can detect content drift across re-uploads.
    pub checksum: u64,
}

impl GraphEntry {
    pub(crate) fn new(name: String, graph: Graph) -> Self {
        let checksum = graph_checksum(&graph);
        GraphEntry { instance: Arc::new(Instance::sequential(name, graph)), checksum }
    }

    /// The corpus name.
    pub fn name(&self) -> &str {
        &self.instance.name
    }

    /// The stored graph.
    pub fn graph(&self) -> &Graph {
        &self.instance.graph
    }
}

/// Why an upload or load was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusError {
    /// The graph name contains characters outside `[A-Za-z0-9._-]` (it
    /// becomes a path component and a URL segment).
    InvalidName(String),
    /// The body parsed as neither a binary snapshot nor an edge list.
    InvalidGraph(String),
    /// Persistence I/O failed.
    Io(String),
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::InvalidName(name) => write!(
                f,
                "invalid graph name {name:?}: use 1-100 characters from [A-Za-z0-9._-], not starting with '.'"
            ),
            CorpusError::InvalidGraph(detail) => write!(f, "invalid graph body: {detail}"),
            CorpusError::Io(detail) => write!(f, "corpus persistence error: {detail}"),
        }
    }
}

impl std::error::Error for CorpusError {}

/// Writes `bytes` to `path` atomically: write to a `.tmp` sibling,
/// then rename over the final name, so a crash mid-write never leaves
/// a half-written file where a reader looks. Shared by the snapshot
/// writer and the result-cache persistence
/// ([`crate::cache::ResultCache::save`]).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Validates a client-supplied graph name (it is used as a file stem).
pub fn validate_name(name: &str) -> Result<(), CorpusError> {
    let ok = !name.is_empty()
        && name.len() <= 100
        && !name.starts_with('.')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if ok {
        Ok(())
    } else {
        Err(CorpusError::InvalidName(name.to_string()))
    }
}

/// A graph [`CorpusStore::insert`] or [`CorpusStore::patch`] stored.
#[derive(Debug)]
pub struct Stored {
    /// The new entry.
    pub entry: Arc<GraphEntry>,
    /// The checksum of the content the entry replaced, when no stored
    /// graph holds that content any more: no request can name it then,
    /// so the result cache may forget it.
    pub retired: Option<u64>,
}

/// The store: named graphs behind a `RwLock`, with optional snapshot
/// persistence.
pub struct CorpusStore {
    graphs: RwLock<BTreeMap<String, Arc<GraphEntry>>>,
    persist_dir: Option<PathBuf>,
}

impl CorpusStore {
    /// An in-memory store (no persistence).
    pub fn in_memory() -> Self {
        CorpusStore { graphs: RwLock::new(BTreeMap::new()), persist_dir: None }
    }

    /// A persistent store rooted at `dir` (created if absent), loading
    /// every existing `*.lmdsg` snapshot.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Io`] on directory/file I/O failures, or the
    /// snapshot parse error for a corrupted file (a damaged corpus
    /// fails loudly at startup rather than silently serving less).
    pub fn persistent(dir: &Path) -> Result<Self, CorpusError> {
        std::fs::create_dir_all(dir).map_err(|e| CorpusError::Io(e.to_string()))?;
        let mut graphs = BTreeMap::new();
        let entries = std::fs::read_dir(dir).map_err(|e| CorpusError::Io(e.to_string()))?;
        for entry in entries {
            let path = entry.map_err(|e| CorpusError::Io(e.to_string()))?.path();
            if path.extension().and_then(|e| e.to_str()) != Some(SNAPSHOT_EXT) {
                continue;
            }
            let Some(name) = path.file_stem().and_then(|s| s.to_str()).map(str::to_string) else {
                continue;
            };
            validate_name(&name)?;
            let bytes = std::fs::read(&path).map_err(|e| CorpusError::Io(e.to_string()))?;
            let graph = from_snapshot(&bytes)
                .map_err(|e| CorpusError::Io(format!("snapshot {}: {e}", path.display())))?;
            graphs.insert(name.clone(), Arc::new(GraphEntry::new(name, graph)));
        }
        Ok(CorpusStore { graphs: RwLock::new(graphs), persist_dir: Some(dir.to_path_buf()) })
    }

    /// Parses an upload body (binary snapshot or UTF-8 edge list,
    /// dispatched on the snapshot magic) and stores it under `name`,
    /// replacing any previous graph of that name.
    ///
    /// # Errors
    ///
    /// [`CorpusError`] on a bad name, an unparseable body, or a
    /// persistence failure.
    pub fn insert(&self, name: &str, body: &[u8]) -> Result<Stored, CorpusError> {
        validate_name(name)?;
        let graph = if is_snapshot(body) {
            from_snapshot(body).map_err(|e| CorpusError::InvalidGraph(e.to_string()))?
        } else {
            let text = std::str::from_utf8(body).map_err(|_| {
                CorpusError::InvalidGraph("body is neither a snapshot nor UTF-8".into())
            })?;
            from_edge_list(text).map_err(|e| CorpusError::InvalidGraph(e.to_string()))?
        };
        let entry = Arc::new(GraphEntry::new(name.to_string(), graph));
        if let Some(dir) = &self.persist_dir {
            self.write_snapshot(dir, &entry)?;
        }
        let retired = replace(&mut self.graphs.write().expect("corpus lock"), entry.clone());
        Ok(Stored { entry, retired })
    }

    /// Applies an edge-update batch to the graph stored under `name`,
    /// replacing it with a fresh entry (new [`GraphEntry::checksum`], so
    /// every result-cache key for the old content misses naturally).
    /// Returns `None` when no graph is stored under `name`.
    ///
    /// The whole batch is validated and applied atomically
    /// ([`DynamicGraph::apply`]) under the corpus write lock, so
    /// concurrent readers see either the old entry or the new one —
    /// never a half-patched graph. In-flight jobs keep their `Arc` to
    /// the old entry, exactly like a re-upload.
    ///
    /// # Errors
    ///
    /// [`CorpusError::InvalidGraph`] when the batch is rejected (self
    /// loop, endpoint out of range), [`CorpusError::Io`] when the
    /// refreshed snapshot cannot be persisted; the stored entry is
    /// untouched either way.
    pub fn patch(
        &self,
        name: &str,
        updates: &[GraphUpdate],
    ) -> Result<Option<(Stored, UpdateStats)>, CorpusError> {
        let mut graphs = self.graphs.write().expect("corpus lock");
        let Some(old) = graphs.get(name) else { return Ok(None) };
        let mut dynamic = DynamicGraph::new(old.graph().clone());
        let stats = dynamic.apply(updates).map_err(|e| CorpusError::InvalidGraph(e.to_string()))?;
        let entry = Arc::new(GraphEntry::new(name.to_string(), dynamic.into_graph()));
        if let Some(dir) = &self.persist_dir {
            self.write_snapshot(dir, &entry)?;
        }
        let retired = replace(&mut graphs, entry.clone());
        Ok(Some((Stored { entry, retired }, stats)))
    }

    fn write_snapshot(&self, dir: &Path, entry: &GraphEntry) -> Result<(), CorpusError> {
        let bytes =
            to_snapshot(entry.graph()).map_err(|e| CorpusError::InvalidGraph(e.to_string()))?;
        let fin = dir.join(format!("{}.{SNAPSHOT_EXT}", entry.name()));
        atomic_write(&fin, &bytes).map_err(|e| CorpusError::Io(e.to_string()))
    }

    /// Looks a graph up by name.
    pub fn get(&self, name: &str) -> Option<Arc<GraphEntry>> {
        self.graphs.read().expect("corpus lock").get(name).cloned()
    }

    /// All stored entries, in name order.
    pub fn list(&self) -> Vec<Arc<GraphEntry>> {
        self.graphs.read().expect("corpus lock").values().cloned().collect()
    }

    /// Number of stored graphs.
    pub fn len(&self) -> usize {
        self.graphs.read().expect("corpus lock").len()
    }

    /// Whether the store holds no graphs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Re-writes every stored graph's snapshot file (shutdown flush).
    /// A no-op without a persistence directory.
    ///
    /// # Errors
    ///
    /// The first [`CorpusError`] hit.
    pub fn flush(&self) -> Result<(), CorpusError> {
        let Some(dir) = &self.persist_dir else { return Ok(()) };
        for entry in self.list() {
            self.write_snapshot(dir, &entry)?;
        }
        Ok(())
    }
}

/// Stores `entry` under its name, returning the checksum of the content
/// it replaced if no stored graph holds that content any more.
fn replace(graphs: &mut BTreeMap<String, Arc<GraphEntry>>, entry: Arc<GraphEntry>) -> Option<u64> {
    let old = graphs.insert(entry.name().to_string(), entry)?.checksum;
    (!graphs.values().any(|e| e.checksum == old)).then_some(old)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_list() -> &'static str {
        "5 4\n0 1\n1 2\n2 3\n3 4\n"
    }

    #[test]
    fn inserts_and_lists_both_formats() {
        let store = CorpusStore::in_memory();
        let a = store.insert("path5", edge_list().as_bytes()).unwrap().entry;
        assert_eq!(a.graph().n(), 5);
        let snap = to_snapshot(a.graph()).unwrap();
        let b = store.insert("path5-bin", &snap).unwrap().entry;
        assert_eq!(a.checksum, b.checksum, "same graph, same checksum, either format");
        assert_eq!(store.list().len(), 2);
        assert!(store.get("path5").is_some());
        assert!(store.get("nope").is_none());
    }

    #[test]
    fn replacing_keeps_old_arc_alive() {
        let store = CorpusStore::in_memory();
        let old = store.insert("g", edge_list().as_bytes()).unwrap().entry;
        store.insert("g", b"2 1\n0 1\n").unwrap();
        assert_eq!(old.graph().n(), 5, "in-flight handle survives the re-upload");
        assert_eq!(store.get("g").unwrap().graph().n(), 2);
    }

    #[test]
    fn name_validation() {
        let store = CorpusStore::in_memory();
        for bad in ["", "a/b", "../x", ".hidden", "a b", &"x".repeat(101)] {
            assert!(
                matches!(
                    store.insert(bad, edge_list().as_bytes()),
                    Err(CorpusError::InvalidName(_))
                ),
                "{bad:?}"
            );
        }
        assert!(store.insert("ok-1.2_b", edge_list().as_bytes()).is_ok());
    }

    #[test]
    fn garbage_bodies_are_rejected() {
        let store = CorpusStore::in_memory();
        assert!(matches!(store.insert("g", b"not a graph"), Err(CorpusError::InvalidGraph(_))));
        assert!(matches!(
            store.insert("g", &[0xff, 0xfe, 0x00]),
            Err(CorpusError::InvalidGraph(_))
        ));
        // A truncated snapshot fails as a snapshot, not as an edge list.
        let snap = to_snapshot(&Graph::from_edges(3, &[(0, 1)])).unwrap();
        let err = store.insert("g", &snap[..snap.len() - 1]).unwrap_err();
        assert!(matches!(err, CorpusError::InvalidGraph(ref d) if d.contains("snapshot")), "{err}");
    }

    #[test]
    fn replaced_content_is_retired_once_no_name_holds_it() {
        let store = CorpusStore::in_memory();
        let first = store.insert("g", edge_list().as_bytes()).unwrap();
        assert_eq!(first.retired, None, "nothing replaced");
        let again = store.insert("g", edge_list().as_bytes()).unwrap();
        assert_eq!(again.retired, None, "the same content again");
        store.insert("twin", edge_list().as_bytes()).unwrap();
        let (patched, _) = store.patch("g", &[GraphUpdate::AddVertex]).unwrap().unwrap();
        assert_eq!(patched.retired, None, "another name still holds the content");
        let replaced = store.insert("twin", b"2 1\n0 1\n").unwrap();
        assert_eq!(replaced.retired, Some(first.entry.checksum));
    }

    #[test]
    fn patch_replaces_the_entry_atomically_and_rejects_bad_batches() {
        let store = CorpusStore::in_memory();
        let old = store.insert("g", edge_list().as_bytes()).unwrap().entry;

        // Unknown names are None, not an error (the HTTP layer owns 404).
        assert!(store.patch("ghost", &[GraphUpdate::AddVertex]).unwrap().is_none());

        let (patched, stats) = store
            .patch("g", &[GraphUpdate::RemoveEdge(2, 3), GraphUpdate::AddVertex])
            .unwrap()
            .unwrap();
        let patched = patched.entry;
        assert_eq!((stats.removed, stats.added_vertices), (1, 1));
        assert_eq!(patched.graph().n(), 6);
        assert_eq!(patched.graph().m(), 3);
        assert_ne!(patched.checksum, old.checksum, "content change, checksum change");
        assert_eq!(old.graph().n(), 5, "in-flight handle survives the patch");
        assert_eq!(store.get("g").unwrap().checksum, patched.checksum);

        // A rejected batch (out-of-range endpoint) leaves the store
        // untouched.
        let err = store.patch("g", &[GraphUpdate::InsertEdge(0, 99)]).unwrap_err();
        assert!(matches!(err, CorpusError::InvalidGraph(_)), "{err}");
        assert_eq!(store.get("g").unwrap().checksum, patched.checksum);
    }

    #[test]
    fn patch_refreshes_the_persisted_snapshot() {
        let dir = std::env::temp_dir().join(format!("lmds-corpus-patch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let patched_checksum;
        {
            let store = CorpusStore::persistent(&dir).unwrap();
            store.insert("p5", edge_list().as_bytes()).unwrap();
            let (stored, _) = store.patch("p5", &[GraphUpdate::InsertEdge(0, 4)]).unwrap().unwrap();
            patched_checksum = stored.entry.checksum;
        }
        let reloaded = CorpusStore::persistent(&dir).unwrap();
        assert_eq!(reloaded.get("p5").unwrap().checksum, patched_checksum);
        assert_eq!(reloaded.get("p5").unwrap().graph().m(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistence_round_trip() {
        let dir = std::env::temp_dir().join(format!("lmds-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = CorpusStore::persistent(&dir).unwrap();
            store.insert("p5", edge_list().as_bytes()).unwrap();
            store.flush().unwrap();
        }
        // A fresh store sees the persisted graph.
        let reloaded = CorpusStore::persistent(&dir).unwrap();
        assert_eq!(reloaded.len(), 1);
        let entry = reloaded.get("p5").unwrap();
        assert_eq!(entry.graph().n(), 5);
        assert_eq!(entry.checksum, graph_checksum(entry.graph()));
        // Corruption fails loudly at startup.
        std::fs::write(dir.join(format!("p5.{SNAPSHOT_EXT}")), b"junk").unwrap();
        assert!(matches!(CorpusStore::persistent(&dir), Err(CorpusError::Io(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
