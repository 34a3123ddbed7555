//! A bounded LRU cache of compiled programs.
//!
//! Serving layers re-apply the same synthesized programs to many columns
//! (or many requests); compiling on every call would redo validation,
//! transparency analysis and the fused-automaton build. [`ProgramCache`] keys
//! compilations by the structural fingerprint of `(program, target)` and
//! hands out shared `Arc`s, evicting the least-recently-used entry once
//! `capacity` distinct programs are resident.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use clx_pattern::Pattern;
use clx_telemetry::{MetricSink, Span};
use clx_unifi::Program;

use crate::compiled::{fingerprint, CompiledProgram};
use crate::error::CompileError;

struct CacheEntry {
    // Key material kept to disambiguate fingerprint collisions.
    program: Program,
    target: Pattern,
    compiled: Arc<CompiledProgram>,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<u64, CacheEntry>,
    tick: u64,
    stats: ProgramCacheStats,
}

/// Lifetime counters of a [`ProgramCache`], readable via
/// [`ProgramCache::stats`] with or without a telemetry sink attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramCacheStats {
    /// Lookups served from cache.
    pub hits: u64,
    /// Lookups that required compilation.
    pub misses: u64,
    /// Entries dropped to enforce the capacity bound.
    pub evictions: u64,
}

impl ProgramCacheStats {
    /// Fraction of lookups served from cache, in `[0, 1]`; 0 before any
    /// lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe, bounded LRU cache of [`CompiledProgram`]s.
pub struct ProgramCache {
    capacity: usize,
    inner: Mutex<Inner>,
    /// Optional metrics destination; `None` keeps every lookup sink-free.
    telemetry: Option<Arc<dyn MetricSink>>,
}

// A single cache instance is meant to be shared by every request handler.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ProgramCache>();
};

impl ProgramCache {
    /// A cache holding at most `capacity` compiled programs (`capacity` is
    /// clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        ProgramCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
            telemetry: None,
        }
    }

    /// A cache that additionally publishes `engine.program_cache.*`
    /// hit/miss/eviction counters and a compile-latency histogram to
    /// `sink`. [`ProgramCache::stats`] works either way.
    pub fn with_telemetry(capacity: usize, sink: Arc<dyn MetricSink>) -> Self {
        ProgramCache {
            telemetry: Some(sink),
            ..ProgramCache::new(capacity)
        }
    }

    /// The compiled form of `(program, target)`: cached if resident,
    /// compiled (and cached) otherwise.
    ///
    /// Compilation happens *outside* the cache lock, so concurrent lookups
    /// of resident programs never wait behind a miss; two threads missing on
    /// the same program may both compile it, and the first insertion wins.
    pub fn get_or_compile(
        &self,
        program: &Program,
        target: &Pattern,
    ) -> Result<Arc<CompiledProgram>, CompileError> {
        let key = fingerprint(program, target);
        if let Some(compiled) = self.lookup(key, program, target) {
            return Ok(compiled);
        }
        let compiled = {
            // Times the compilation (including failed ones) when a sink is
            // attached; inert — no clock read — otherwise. The nested
            // `engine.fused.build_ns` span and `engine.fused.fallbacks`
            // counter flow to the same sink.
            let _span = Span::start(self.telemetry.as_ref(), "engine.program_cache.compile_ns");
            Arc::new(CompiledProgram::compile_observed(
                program,
                target,
                self.telemetry.as_ref(),
            )?)
        };

        let mut inner = self.inner.lock().expect("program cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        // A racing thread may have inserted the same compilation meanwhile;
        // serve the resident one so every caller shares a single Arc.
        if let Some(entry) = inner.entries.get_mut(&key) {
            if entry.program == *program && entry.target == *target {
                entry.last_used = tick;
                return Ok(Arc::clone(&entry.compiled));
            }
            // A mismatching entry is a fingerprint collision: replace it.
        }
        inner.entries.insert(
            key,
            CacheEntry {
                program: program.clone(),
                target: target.clone(),
                compiled: Arc::clone(&compiled),
                last_used: tick,
            },
        );
        let mut evicted = 0u64;
        while inner.entries.len() > self.capacity {
            let oldest = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty map has a minimum");
            inner.entries.remove(&oldest);
            evicted += 1;
        }
        inner.stats.evictions += evicted;
        drop(inner);
        if evicted > 0 {
            if let Some(sink) = &self.telemetry {
                sink.counter("engine.program_cache.evictions", evicted);
            }
        }
        Ok(compiled)
    }

    /// Hit path: touch and return the resident compilation, counting the
    /// lookup as a hit or miss.
    fn lookup(
        &self,
        key: u64,
        program: &Program,
        target: &Pattern,
    ) -> Option<Arc<CompiledProgram>> {
        let mut inner = self.inner.lock().expect("program cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let hit = match inner.entries.get_mut(&key) {
            Some(entry) if entry.program == *program && entry.target == *target => {
                entry.last_used = tick;
                Some(Arc::clone(&entry.compiled))
            }
            _ => None,
        };
        if hit.is_some() {
            inner.stats.hits += 1;
        } else {
            inner.stats.misses += 1;
        }
        drop(inner);
        if let Some(sink) = &self.telemetry {
            if hit.is_some() {
                sink.counter("engine.program_cache.hits", 1);
            } else {
                sink.counter("engine.program_cache.misses", 1);
            }
        }
        hit
    }

    /// Maximum number of resident programs.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident programs.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("program cache poisoned")
            .entries
            .len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from cache.
    pub fn hits(&self) -> u64 {
        self.stats().hits
    }

    /// Lookups that required compilation.
    pub fn misses(&self) -> u64 {
        self.stats().misses
    }

    /// Entries dropped to enforce the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.stats().evictions
    }

    /// One consistent read of the lifetime hit/miss/eviction counters —
    /// available with or without a telemetry sink attached.
    pub fn stats(&self) -> ProgramCacheStats {
        self.inner.lock().expect("program cache poisoned").stats
    }

    /// Drop every cached program (counters are kept).
    pub fn clear(&self) {
        self.inner
            .lock()
            .expect("program cache poisoned")
            .entries
            .clear();
    }
}

impl std::fmt::Debug for ProgramCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ProgramCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("stats", &stats)
            .field("telemetry", &self.telemetry.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clx_pattern::tokenize;
    use clx_unifi::{Branch, Expr, StringExpr};

    fn program(constant: &str) -> Program {
        Program::new(vec![Branch::new(
            tokenize("123"),
            Expr::concat(vec![
                StringExpr::const_str(constant.to_string()),
                StringExpr::extract(1),
            ]),
        )])
    }

    #[test]
    fn second_lookup_hits() {
        let cache = ProgramCache::new(4);
        let target = tokenize("#1");
        let a = cache.get_or_compile(&program("#"), &target).unwrap();
        let b = cache.get_or_compile(&program("#"), &target).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same compilation object served");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = ProgramCache::new(2);
        let target = tokenize("#1");
        cache.get_or_compile(&program("a"), &target).unwrap();
        cache.get_or_compile(&program("b"), &target).unwrap();
        // Touch "a" so "b" becomes the LRU entry.
        cache.get_or_compile(&program("a"), &target).unwrap();
        cache.get_or_compile(&program("c"), &target).unwrap();
        assert_eq!(cache.len(), 2);
        // "a" survives (hit); "b" was evicted (miss).
        let hits_before = cache.hits();
        cache.get_or_compile(&program("a"), &target).unwrap();
        assert_eq!(cache.hits(), hits_before + 1);
        let misses_before = cache.misses();
        cache.get_or_compile(&program("b"), &target).unwrap();
        assert_eq!(cache.misses(), misses_before + 1);
    }

    #[test]
    fn different_targets_are_different_entries() {
        let cache = ProgramCache::new(4);
        let p = program("x");
        cache.get_or_compile(&p, &tokenize("#1")).unwrap();
        cache.get_or_compile(&p, &tokenize("#22")).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn compile_errors_propagate_and_are_not_cached() {
        let cache = ProgramCache::new(4);
        let bad = Program::new(vec![Branch::new(
            tokenize("abc"),
            Expr::concat(vec![StringExpr::extract(5)]),
        )]);
        assert!(cache.get_or_compile(&bad, &tokenize("x")).is_err());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn clear_and_introspection() {
        let cache = ProgramCache::new(3);
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), 3);
        cache
            .get_or_compile(&program("x"), &tokenize("#1"))
            .unwrap();
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert!(format!("{cache:?}").contains("capacity"));
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let cache = ProgramCache::new(0);
        assert_eq!(cache.capacity(), 1);
        cache
            .get_or_compile(&program("x"), &tokenize("#1"))
            .unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn stats_count_hits_misses_and_evictions() {
        let cache = ProgramCache::new(1);
        let target = tokenize("#1");
        assert_eq!(cache.stats(), ProgramCacheStats::default());
        assert_eq!(cache.stats().hit_rate(), 0.0);

        cache.get_or_compile(&program("a"), &target).unwrap(); // miss
        cache.get_or_compile(&program("a"), &target).unwrap(); // hit
        cache.get_or_compile(&program("b"), &target).unwrap(); // miss, evicts "a"
        cache.get_or_compile(&program("c"), &target).unwrap(); // miss, evicts "b"

        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.evictions, 2);
        assert_eq!(cache.evictions(), 2);
        assert_eq!(stats.hit_rate(), 0.25);
    }

    #[test]
    fn telemetry_sink_sees_cache_traffic() {
        let sink = clx_telemetry::InMemorySink::shared();
        let cache = ProgramCache::with_telemetry(1, sink.clone());
        let target = tokenize("#1");
        cache.get_or_compile(&program("a"), &target).unwrap();
        cache.get_or_compile(&program("a"), &target).unwrap();
        cache.get_or_compile(&program("b"), &target).unwrap();

        let snap = clx_telemetry::MetricSink::snapshot(&*sink);
        assert_eq!(snap.counter("engine.program_cache.hits"), Some(1));
        assert_eq!(snap.counter("engine.program_cache.misses"), Some(2));
        assert_eq!(snap.counter("engine.program_cache.evictions"), Some(1));
        let compile = snap
            .histogram("engine.program_cache.compile_ns")
            .expect("compile latency recorded");
        assert_eq!(compile.count, 2);
    }

    /// The repair-round-trip staleness scenario: a repair that lands back
    /// on a previously-compiled program is served the *same* `Arc` from
    /// the cache (same fingerprint, cache hit) — but any dispatch state
    /// decided under that instance before the column's interner stepped
    /// generations must still be invalidated. The program-instance check
    /// alone cannot catch this (the instance never changed); the dense
    /// tier's `(source, generation)` binding must.
    #[test]
    fn repair_round_trip_cache_hit_does_not_resurrect_stale_plans() {
        use crate::dispatch::{DispatchCache, LeafPlan, Step};

        let cache = ProgramCache::new(4);
        let target = tokenize("#1");
        let mut p = program("#");
        let original_expr = Expr::concat(vec![
            StringExpr::const_str("#".to_string()),
            StringExpr::extract(1),
        ]);
        let compiled = cache.get_or_compile(&p, &target).unwrap();

        // A stream decided leaf-id 0 under this instance at generation 0;
        // the sentinel plan stands in for that decision.
        let poisoned = || LeafPlan {
            steps: vec![Step::CheckTarget, Step::CheckTarget, Step::CheckTarget],
        };
        let mut dispatch = DispatchCache::new();
        let plan = dispatch.plan_for_leaf_id(compiled.instance(), 7, 0, 0, poisoned);
        assert_eq!(plan.steps.len(), 3);

        // Repair away and back: the final program is structurally identical
        // to the first compilation, so the cache serves the resident Arc.
        assert!(p.repair(
            &tokenize("123"),
            Expr::concat(vec![StringExpr::const_str("!".to_string())]),
        ));
        cache.get_or_compile(&p, &target).unwrap();
        assert!(p.repair(&tokenize("123"), original_expr));
        let hits_before = cache.hits();
        let again = cache.get_or_compile(&p, &target).unwrap();
        assert_eq!(cache.hits(), hits_before + 1, "identical repair is a hit");
        assert!(Arc::ptr_eq(&compiled, &again), "same compilation object");

        // Meanwhile the interner evicted (generation 0 → 1), so leaf-id 0
        // may now name a different leaf. Same program instance — but the
        // poisoned plan must not be served for the recycled id.
        let plan = dispatch.plan_for_leaf_id(again.instance(), 7, 1, 0, || LeafPlan {
            steps: vec![Step::Conforming],
        });
        assert_eq!(plan.steps.len(), 1, "stale plan not served after eviction");
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = std::sync::Arc::new(ProgramCache::new(2));
        let target = tokenize("#1");
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = std::sync::Arc::clone(&cache);
                let target = target.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        let p = program(if (t + i) % 2 == 0 { "x" } else { "y" });
                        cache.get_or_compile(&p, &target).unwrap();
                    }
                });
            }
        });
        assert!(cache.len() <= 2);
        assert_eq!(cache.hits() + cache.misses(), 200);
    }
}
