//! A disk-backed result store keyed by the canonical spec print.
//!
//! The determinism contract makes caching trivial to state and cheap
//! to trust: a [`JobResult`] is a pure function of its [`JobSpec`](crate::spec::JobSpec)
//! line, and `parse ∘ print = id` holds for both
//! ([`spec`](crate::spec), [`proto`](crate::proto)) — so the canonical
//! spec string *is* the key, and the wire line *is* the on-disk format.
//! A store hit replays the stored line, which re-parses to a result
//! bit-identical to a fresh run (property-tested in
//! `tests/store_identity.rs`).
//!
//! Layout: one file per entry under the store directory, named by the
//! FNV-1a hash of the spec string (`<hash>.job`), containing a format
//! version header line ([`STORE_FORMAT`]) followed by exactly the
//! result's wire line. A missing or mismatched header is a **miss**,
//! never a parse attempt — wire-format evolutions (new job kinds, new
//! output fields) bump the version and old entries silently re-run
//! instead of deserializing wrongly. [`ResultStore::get`] additionally
//! re-checks the embedded spec against the key, so a hash collision
//! degrades to a miss, never to a wrong answer. Writes go through a
//! temp file + rename so a crashed writer cannot leave a torn entry
//! behind; the temp name carries the process id and a process-wide
//! counter, so concurrent puts never share one.
//!
//! The store mirrors the in-memory model LRU's accounting
//! ([`CacheStats`](crate::service::CacheStats)): [`StoreStats`] counts
//! hits, misses, and evictions, and [`ResultStore::with_capacity`]
//! bounds the entry count with oldest-first eviction.
//!
//! **The index.** Opening a store scans its directory once and ranks
//! the entries it finds by modification time (ties by name). From then
//! on the store keeps that ranking in memory: a put writes, renames,
//! and ranks its entry newest, then evicts the oldest indexed entries
//! over capacity — no directory scan on the put path, and
//! [`ResultStore::len`] is O(1). Another process writing the same
//! directory is seen partly: [`ResultStore::get`] reads the entry file,
//! so its entries are served, but eviction and `len()` cover only the
//! entries this process indexed (found at open, put, or imported).
//! [`ResultStore::list`] still reads the directory.

use crate::spec::JobResult;
use std::collections::{BTreeMap, HashMap};
use std::ffi::OsString;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::SystemTime;

/// Hit/miss/eviction counters for a [`ResultStore`], mirroring the
/// in-memory model cache's [`CacheStats`](crate::service::CacheStats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups that fell through to a fresh run.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
}

/// The store file format version header. Bump when the result wire
/// format changes shape; entries with any other (or no) header read as
/// misses, so stale caches re-run rather than misparse.
pub const STORE_FORMAT: &str = "#lsl-store-v2";

/// FNV-1a over the spec bytes — the on-disk file name. Stable across
/// runs and platforms (unlike `DefaultHasher`), cheap, and collisions
/// are handled by re-checking the stored spec.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A directory of finished [`JobResult`]s keyed by canonical spec.
///
/// Thread-safe behind internal locking; share it via the
/// [`Service`](crate::service::Service) (one store per service) or
/// open the same directory from several processes — entries are
/// immutable once written, so concurrent readers are safe, and the
/// temp-file + rename write discipline keeps concurrent writers from
/// tearing each other's entries.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    cap: usize,
    stats: Mutex<StoreStats>,
    /// The entries this process knows of, oldest first. Puts rename and
    /// evict under its lock, so the index and the directory agree on
    /// every entry this process wrote.
    index: Mutex<Index>,
}

/// Distinguishes the temp files of concurrent puts within one process
/// (the process id distinguishes processes).
static TMP_SERIAL: AtomicU64 = AtomicU64::new(0);

/// Entry file names ranked by age: `order` maps a rank to its name,
/// `ranks` maps each name back. A name re-ranked newest drops its old
/// rank, so each entry appears once.
#[derive(Debug, Default)]
struct Index {
    next: u64,
    order: BTreeMap<u64, OsString>,
    ranks: HashMap<OsString, u64>,
}

impl Index {
    /// Ranks `name` newest.
    fn touch(&mut self, name: OsString) {
        if let Some(old) = self.ranks.insert(name.clone(), self.next) {
            self.order.remove(&old);
        }
        self.order.insert(self.next, name);
        self.next += 1;
    }

    /// Removes and returns the oldest entry's name.
    fn pop_oldest(&mut self) -> Option<OsString> {
        let (_, name) = self.order.pop_first()?;
        self.ranks.remove(&name);
        Some(name)
    }

    fn len(&self) -> usize {
        self.ranks.len()
    }
}

impl ResultStore {
    /// Opens (creating if needed) an unbounded store at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        Self::with_capacity(dir, usize::MAX)
    }

    /// Opens a store holding at most `cap` entries; inserting beyond
    /// that evicts the oldest entries and counts them in
    /// [`StoreStats::evictions`]. Entries already on disk rank by
    /// modification time (ties by name), later puts in write order.
    pub fn with_capacity(dir: impl AsRef<Path>, cap: usize) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut found = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "job") {
                if let (Some(t), Some(name)) = (mtime(&path), path.file_name()) {
                    found.push((t, name.to_os_string()));
                }
            }
        }
        found.sort();
        let mut index = Index::default();
        for (_, name) in found {
            index.touch(name);
        }
        Ok(ResultStore {
            dir,
            cap: cap.max(1),
            stats: Mutex::new(StoreStats::default()),
            index: Mutex::new(index),
        })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> StoreStats {
        *self.stats.lock().expect("store stats lock")
    }

    fn path_for(&self, spec: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.job", fnv64(spec.as_bytes())))
    }

    /// Reads one entry file's result line, requiring the
    /// [`STORE_FORMAT`] version header; anything else is `None`.
    fn read_versioned(path: &Path) -> Option<JobResult> {
        let body = fs::read_to_string(path).ok()?;
        let (header, line) = body.split_once('\n')?;
        (header == STORE_FORMAT)
            .then(|| line.trim_end().parse().ok())
            .flatten()
    }

    /// Reads one entry file into a result whose spec matches `spec`.
    fn read_entry(path: &Path, spec: &str) -> Option<JobResult> {
        let result = Self::read_versioned(path)?;
        // A hash collision (or a foreign file) is a miss, never a
        // wrong answer: the stored line embeds its own spec.
        (result.spec == spec).then_some(result)
    }

    /// Looks up the result for a canonical spec string. Counts a hit
    /// or a miss.
    pub fn get(&self, spec: &str) -> Option<JobResult> {
        let found = Self::read_entry(&self.path_for(spec), spec);
        let mut stats = self.stats.lock().expect("store stats lock");
        match found {
            Some(_) => stats.hits += 1,
            None => stats.misses += 1,
        }
        found
    }

    /// Whether an entry for `spec` exists, without touching the
    /// hit/miss counters.
    pub fn exists(&self, spec: &str) -> bool {
        Self::read_entry(&self.path_for(spec), spec).is_some()
    }

    /// Stores a finished result under its own canonical spec,
    /// overwriting any previous entry, then enforces the capacity
    /// bound (oldest entries evicted first).
    pub fn put(&self, result: &JobResult) -> io::Result<()> {
        let path = self.path_for(&result.spec);
        let serial = TMP_SERIAL.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp-{}-{serial}", std::process::id()));
        let written = fs::write(&tmp, format!("{STORE_FORMAT}\n{result}\n"));
        let mut index = self.index.lock().expect("store index lock");
        if let Err(e) = written.and_then(|()| fs::rename(&tmp, &path)) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        if let Some(name) = path.file_name() {
            index.touch(name.to_os_string());
        }
        self.evict_over_capacity(&mut index);
        Ok(())
    }

    /// Entries currently on disk, as canonical spec strings, sorted.
    pub fn list(&self) -> io::Result<Vec<String>> {
        let mut specs: Vec<String> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "job") {
                if let Some(result) = Self::read_versioned(&path) {
                    specs.push(result.spec);
                }
            }
        }
        specs.sort();
        Ok(specs)
    }

    /// Number of entries this store indexed (see the
    /// [module docs](self) on other writers).
    pub fn len(&self) -> usize {
        self.index.lock().expect("store index lock").len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies entries from another store directory when they are
    /// missing here or newer there (by modification time). Returns how
    /// many entries were imported.
    pub fn import_if_newer(&self, src: impl AsRef<Path>) -> io::Result<usize> {
        let mut imported = 0;
        let mut index = self.index.lock().expect("store index lock");
        for entry in fs::read_dir(src.as_ref())? {
            let from = entry?.path();
            if from.extension().is_none_or(|e| e != "job") {
                continue;
            }
            let Some(name) = from.file_name() else {
                continue;
            };
            let to = self.dir.join(name);
            let newer = match (mtime(&from), mtime(&to)) {
                (Some(src_t), Some(dst_t)) => src_t > dst_t,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if newer {
                fs::copy(&from, &to)?;
                index.touch(name.to_os_string());
                imported += 1;
            }
        }
        self.evict_over_capacity(&mut index);
        Ok(imported)
    }

    /// Removes the oldest indexed entries until at most `cap` remain,
    /// counting each file actually removed.
    fn evict_over_capacity(&self, index: &mut Index) {
        let excess = index.len().saturating_sub(self.cap);
        let evicted = (0..excess)
            .filter_map(|_| index.pop_oldest())
            .filter(|name| fs::remove_file(self.dir.join(name)).is_ok())
            .count();
        self.stats.lock().expect("store stats lock").evictions += evicted as u64;
    }
}

fn mtime(path: &Path) -> Option<SystemTime> {
    fs::metadata(path).and_then(|m| m.modified()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{JobOutput, JobResult};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lsl-store-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn result_for(spec: &str, rounds: u64) -> JobResult {
        JobResult {
            spec: spec.to_string(),
            output: JobOutput::Run {
                rounds,
                n: 8,
                feasible: true,
                fingerprint: 0xfeed,
                comm: None,
            },
            elapsed_secs: 0.25,
        }
    }

    #[test]
    fn put_get_roundtrips_and_counts() {
        let dir = tmp_dir("roundtrip");
        let store = ResultStore::open(&dir).unwrap();
        let spec = "graph=cycle:8 model=coloring:q=5 seed=1 job=run:rounds=10";
        assert!(store.get(spec).is_none(), "cold store misses");
        store.put(&result_for(spec, 10)).unwrap();
        assert!(store.exists(spec));
        let hit = store.get(spec).expect("stored entry");
        assert_eq!(hit, result_for(spec, 10));
        assert_eq!(hit.elapsed_secs.to_bits(), 0.25f64.to_bits());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(store.list().unwrap(), vec![spec.to_string()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn collisions_degrade_to_misses() {
        let dir = tmp_dir("collision");
        let store = ResultStore::open(&dir).unwrap();
        let spec = "graph=cycle:9 model=coloring:q=5 seed=2 job=run:rounds=10";
        store.put(&result_for(spec, 10)).unwrap();
        // Forge a collision: another spec's entry file moved onto this
        // spec's slot must be rejected by the embedded-spec check.
        let other = "graph=cycle:10 model=coloring:q=5 seed=3 job=run:rounds=10";
        fs::write(
            store.path_for(other),
            format!("{STORE_FORMAT}\n{}\n", result_for(spec, 10)),
        )
        .unwrap();
        assert!(store.get(other).is_none(), "forged entry must not serve");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_is_a_miss() {
        let dir = tmp_dir("version");
        let store = ResultStore::open(&dir).unwrap();
        let spec = "graph=cycle:8 model=coloring:q=5 seed=7 job=run:rounds=10";
        store.put(&result_for(spec, 10)).unwrap();
        assert!(store.exists(spec), "current-format entry serves");

        // A pre-versioning entry (bare result line, no header) must
        // read as a miss, not a hit and not an error.
        fs::write(store.path_for(spec), format!("{}\n", result_for(spec, 10))).unwrap();
        assert!(store.get(spec).is_none(), "headerless entry must miss");
        assert!(store.list().unwrap().is_empty(), "and must not list");

        // So must an entry from a future (or past) format version.
        fs::write(
            store.path_for(spec),
            format!("#lsl-store-v1\n{}\n", result_for(spec, 10)),
        )
        .unwrap();
        assert!(store.get(spec).is_none(), "wrong-version entry must miss");

        // Re-putting rewrites the entry in the current format.
        store.put(&result_for(spec, 10)).unwrap();
        assert_eq!(store.get(spec), Some(result_for(spec, 10)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn capacity_evicts_oldest_and_counts() {
        let dir = tmp_dir("evict");
        let store = ResultStore::with_capacity(&dir, 2).unwrap();
        let specs: Vec<String> = (0..4)
            .map(|i| format!("graph=cycle:8 model=coloring:q=5 seed={i} job=run:rounds=10"))
            .collect();
        for spec in &specs {
            store.put(&result_for(spec, 10)).unwrap();
            // Distinct mtimes so "oldest" is well defined.
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().evictions, 2);
        assert!(!store.exists(&specs[0]) && !store.exists(&specs[1]));
        assert!(store.exists(&specs[2]) && store.exists(&specs[3]));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Names in `dir` that are not finished `.job` entries.
    fn stray_files(dir: &Path) -> Vec<String> {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| !name.ends_with(".job"))
            .collect()
    }

    #[test]
    fn concurrent_puts_of_one_spec_all_land() {
        let dir = tmp_dir("race");
        let store = ResultStore::open(&dir).unwrap();
        let spec = "graph=cycle:8 model=coloring:q=5 seed=11 job=run:rounds=10";
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        store.put(&result_for(spec, 10))
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap().expect("every concurrent put succeeds");
            }
        });
        assert_eq!(store.get(spec), Some(result_for(spec, 10)));
        assert_eq!(store.len(), 1);
        assert!(stray_files(&dir).is_empty(), "{:?}", stray_files(&dir));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopening_indexes_what_is_on_disk() {
        let dir = tmp_dir("reopen");
        let specs: Vec<String> = (0..3)
            .map(|i| format!("graph=cycle:8 model=coloring:q=5 seed={i} job=run:rounds=10"))
            .collect();
        {
            let store = ResultStore::open(&dir).unwrap();
            for spec in &specs {
                store.put(&result_for(spec, 10)).unwrap();
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
        // Reopened at a smaller cap: the next put evicts the oldest
        // entries found on disk.
        let store = ResultStore::with_capacity(&dir, 2).unwrap();
        assert_eq!(store.len(), 3);
        let fresh = "graph=cycle:9 model=coloring:q=5 seed=0 job=run:rounds=10";
        store.put(&result_for(fresh, 10)).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().evictions, 2);
        assert!(store.exists(&specs[2]) && store.exists(fresh));
        assert_eq!(store.list().unwrap().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    /// 10,000 puts at cap 64: the per-put cost does not grow with the
    /// number of puts so far, and the index and the directory agree.
    #[test]
    fn put_cost_stays_flat_over_a_long_soak() {
        const PUTS: usize = 10_000;
        const CAP: usize = 64;
        let dir = tmp_dir("soak");
        let store = ResultStore::with_capacity(&dir, CAP).unwrap();
        let mut costs = Vec::with_capacity(PUTS);
        for i in 0..PUTS {
            let spec = format!("graph=cycle:8 model=coloring:q=5 seed={i} job=run:rounds=10");
            let result = result_for(&spec, 10);
            let t = std::time::Instant::now();
            store.put(&result).unwrap();
            costs.push(t.elapsed());
        }
        let median = |window: &[std::time::Duration]| {
            let mut w = window.to_vec();
            w.sort();
            w[w.len() / 2]
        };
        let (first, last) = (median(&costs[..1000]), median(&costs[PUTS - 1000..]));
        assert!(
            last <= first * 2,
            "per-put cost grew: median {first:?} over the first 1000 puts, {last:?} over the last"
        );
        assert_eq!(store.len(), CAP);
        let on_disk = fs::read_dir(&dir).unwrap().count();
        assert_eq!(on_disk, CAP, "stray files: {:?}", stray_files(&dir));
        assert_eq!(store.stats().evictions, (PUTS - CAP) as u64);
        let _ = fs::remove_dir_all(&dir);
    }
}
