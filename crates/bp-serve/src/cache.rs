//! Shared compiled-graph cache keyed by canonical app shape.
//!
//! Lowering a graph to `bp-codegen`'s mask planner is the one
//! per-instance build cost that does not depend on instance identity:
//! the lowering reads only *shape* facts (kernel kinds, port geometry,
//! trigger structure, costs), never node names or per-tenant state. A
//! fleet host therefore lowers each distinct shape once and instantiates
//! every same-shape tenant from the shared [`Arc`]ed program —
//! [`bp_sim::SimConfig::with_lowered`] skips the per-tenant lowering
//! entirely.
//!
//! The cache key is [`bp_codegen::shape_key`], which by construction
//! ignores instance names and changes whenever any lowering-relevant
//! fact (window geometry, rates, costs, topology) changes. Retuning one
//! tenant's windows thus produces a distinct key and a fresh lowering
//! without perturbing other tenants' cached programs.

use bp_codegen::{lower_graph, shape_key, ThreadedProgram};
use bp_core::graph::AppGraph;
use bp_core::Result;
use std::collections::HashMap;
use std::sync::Arc;

/// Hit/miss counters for the program cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a previously lowered program.
    pub hits: u64,
    /// Lookups that lowered a new shape.
    pub misses: u64,
}

/// A shape-keyed cache of lowered mask-planner programs.
#[derive(Default)]
pub struct ProgramCache {
    programs: HashMap<u64, Arc<ThreadedProgram>>,
    stats: CacheStats,
}

impl ProgramCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Return the shared lowering for `graph`'s shape, lowering it on
    /// first sight. The returned key is [`shape_key(graph)`](shape_key).
    pub fn get_or_lower(&mut self, graph: &AppGraph) -> Result<(u64, Arc<ThreadedProgram>)> {
        let key = shape_key(graph);
        if let Some(program) = self.programs.get(&key) {
            self.stats.hits += 1;
            return Ok((key, Arc::clone(program)));
        }
        let program = Arc::new(lower_graph(graph)?);
        self.stats.misses += 1;
        self.programs.insert(key, Arc::clone(&program));
        Ok((key, program))
    }

    /// Distinct shapes currently cached.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// True when no shape has been lowered yet.
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::{Dim2, GraphBuilder};

    fn pipeline(suffix: &str, dim: Dim2) -> AppGraph {
        let mut b = GraphBuilder::new();
        let src = b.add_source(
            format!("In{suffix}"),
            bp_kernels::pattern_source(dim),
            dim,
            50.0,
        );
        let k = b.add(format!("K{suffix}"), bp_kernels::scale(2.0, 0.0));
        let (sdef, _) = bp_kernels::sink();
        let snk = b.add(format!("Out{suffix}"), sdef);
        b.connect(src, "out", k, "in");
        b.connect(k, "out", snk, "in");
        b.build().unwrap()
    }

    #[test]
    fn same_shape_shares_one_lowering() {
        let mut cache = ProgramCache::new();
        let (ka, pa) = cache
            .get_or_lower(&pipeline("-a", Dim2::new(16, 8)))
            .unwrap();
        let (kb, pb) = cache
            .get_or_lower(&pipeline("-b", Dim2::new(16, 8)))
            .unwrap();
        assert_eq!(ka, kb, "instance names must not split the cache");
        assert!(Arc::ptr_eq(&pa, &pb), "same shape must share one program");
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn retuned_geometry_gets_its_own_entry() {
        let mut cache = ProgramCache::new();
        let (ka, _) = cache.get_or_lower(&pipeline("", Dim2::new(16, 8))).unwrap();
        let (kb, _) = cache.get_or_lower(&pipeline("", Dim2::new(32, 8))).unwrap();
        assert_ne!(ka, kb);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
        assert_eq!(cache.len(), 2);
    }
}
