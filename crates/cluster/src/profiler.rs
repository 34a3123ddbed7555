//! The pattern profiler: the end-to-end "Clustering" component of CLX
//! (Section 4), combining tokenization-based initial clustering, constant
//! discovery and agglomerative refinement into one call.
//!
//! Profiling runs over the shared column data plane ([`clx_column::Column`]):
//! only the column's *distinct* values are analyzed — their leaf patterns
//! and token slices come straight from the column's cache — and the
//! resulting cluster row sets are fanned back out to original row indices
//! through the column's row lists. A duplicate-heavy column
//! therefore profiles in O(distinct values), not O(rows).

use clx_column::Column;
use clx_pattern::{Pattern, TokenSlice};

use crate::constants::{discover_constants_cached, ConstantDiscoveryOptions};
use crate::hierarchy::{NodeId, PatternHierarchy};
use crate::refine::{refine_level, GeneralizationStrategy, STANDARD_STRATEGIES};

/// Options controlling pattern profiling.
#[derive(Debug, Clone)]
pub struct ProfilerOptions {
    /// Whether to run constant-token discovery on the leaf clusters.
    pub discover_constants: bool,
    /// Options for constant discovery (ignored when disabled).
    pub constant_options: ConstantDiscoveryOptions,
    /// The generalization strategies applied, one refinement level each.
    /// Defaults to the paper's three rounds.
    pub strategies: Vec<GeneralizationStrategy>,
    /// Maximum number of example values retained per cluster for display.
    pub examples_per_cluster: usize,
}

impl Default for ProfilerOptions {
    fn default() -> Self {
        ProfilerOptions {
            discover_constants: true,
            constant_options: ConstantDiscoveryOptions::default(),
            strategies: STANDARD_STRATEGIES.to_vec(),
            examples_per_cluster: 3,
        }
    }
}

/// Profiles a column of string data into a [`PatternHierarchy`].
///
/// ```
/// use clx_cluster::PatternProfiler;
/// let h = PatternProfiler::new().profile(&["a1", "b2", "xyz-9"]);
/// assert_eq!(h.leaves().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PatternProfiler {
    options: ProfilerOptions,
}

impl PatternProfiler {
    /// A profiler with default options (constant discovery on, the paper's
    /// three refinement strategies).
    pub fn new() -> Self {
        PatternProfiler {
            options: ProfilerOptions::default(),
        }
    }

    /// A profiler with custom options.
    pub fn with_options(options: ProfilerOptions) -> Self {
        PatternProfiler { options }
    }

    /// The options this profiler uses.
    pub fn options(&self) -> &ProfilerOptions {
        &self.options
    }

    /// Profile `data` into a pattern-cluster hierarchy.
    ///
    /// Convenience wrapper that builds a [`Column`] (interning, dedup,
    /// cached tokenization) and delegates to
    /// [`PatternProfiler::profile_column`]. Callers that keep the column
    /// around — like `ClxSession` — should build it once and use
    /// `profile_column` directly so every later stage shares the cache.
    pub fn profile<S: AsRef<str>>(&self, data: &[S]) -> PatternHierarchy {
        self.profile_column(&Column::from_values(data))
    }

    /// Profile a [`Column`] into a pattern-cluster hierarchy.
    ///
    /// Phase 1 clusters the column's *distinct* values by their leaf-ids
    /// and runs constant discovery over the cached token slices; row sets
    /// are fanned back out through the column's row lists. Phase 2
    /// (agglomerative refinement) operates on patterns only.
    pub fn profile_column(&self, column: &Column) -> PatternHierarchy {
        let mut hierarchy = PatternHierarchy::new(column.len());

        // ---- Phase 1: initial clustering through tokenization (§4.1) ----
        // Materialize the leaf nodes: fan distinct-value membership back out
        // to original row indices through the row lists.
        let mut current_level: Vec<NodeId> = Vec::new();
        for (pattern, members) in self.leaf_clusters(column) {
            let mut rows: Vec<usize> = members
                .iter()
                .flat_map(|&v| column.distinct(v).rows())
                .collect();
            rows.sort_unstable();
            let examples = members
                .iter()
                .take(self.options.examples_per_cluster)
                .map(|&v| column.distinct(v).text().to_string())
                .collect();
            let id = hierarchy.add_node(pattern, 0, Vec::new(), rows, examples);
            current_level.push(id);
        }

        // ---- Phase 2: agglomerative refinement (§4.2, Algorithm 1) ----
        for (round, strategy) in self.options.strategies.iter().enumerate() {
            let level = round + 1;
            let child_patterns: Vec<Pattern> = current_level
                .iter()
                .map(|&id| hierarchy.node(id).pattern.clone())
                .collect();
            let refined = refine_level(&child_patterns, *strategy);
            // If refinement makes no progress (every parent has exactly one
            // child and the same pattern), stop early to avoid duplicate
            // levels.
            let trivial = refined
                .iter()
                .all(|(p, kids)| kids.len() == 1 && *p == child_patterns[kids[0]]);
            if trivial {
                break;
            }
            let mut next_level = Vec::new();
            for (parent_pattern, child_idxs) in refined {
                let children: Vec<NodeId> = child_idxs.iter().map(|&i| current_level[i]).collect();
                let mut rows: Vec<usize> = children
                    .iter()
                    .flat_map(|&c| hierarchy.node(c).rows.clone())
                    .collect();
                rows.sort_unstable();
                let examples = children
                    .iter()
                    .flat_map(|&c| hierarchy.node(c).examples.clone())
                    .take(self.options.examples_per_cluster)
                    .collect();
                let id = hierarchy.add_node(parent_pattern, level, children, rows, examples);
                next_level.push(id);
            }
            current_level = next_level;
        }

        debug_assert!(hierarchy.check_invariants().is_ok());
        hierarchy
    }

    /// The leaf clusters of `column` with their row counts: what
    /// [`PatternHierarchy::pattern_summary`] reads off
    /// [`PatternProfiler::profile_column`]'s hierarchy, from phase 1 alone
    /// (no refinement levels, no row lists), largest cluster first.
    ///
    /// ```
    /// use clx_cluster::PatternProfiler;
    /// use clx_column::Column;
    ///
    /// let column = Column::from_values(&["a1", "b2", "xyz-9", "a1"]);
    /// let profiler = PatternProfiler::new();
    /// let summary = profiler.leaf_summary(&column);
    /// assert_eq!(summary, profiler.profile_column(&column).pattern_summary());
    /// assert_eq!(summary[0].1, 3);
    /// ```
    pub fn leaf_summary(&self, column: &Column) -> Vec<(Pattern, usize)> {
        let mut summary: Vec<(Pattern, usize)> = self
            .leaf_clusters(column)
            .into_iter()
            .map(|(pattern, members)| {
                let rows = members
                    .iter()
                    .map(|&v| column.distinct(v).multiplicity())
                    .sum();
                (pattern, rows)
            })
            .collect();
        // Stable, so equal sizes keep cluster order, as `leaves` does.
        summary.sort_by_key(|&(_, rows)| std::cmp::Reverse(rows));
        summary
    }

    /// Phase 1, initial clustering through tokenization (§4.1): each leaf
    /// cluster's pattern with its members, as indices into the column's
    /// distinct-value table, in the order the hierarchy's leaves take.
    fn leaf_clusters(&self, column: &Column) -> Vec<(Pattern, Vec<usize>)> {
        // Group distinct values by leaf-id. Leaf-ids are dense and assigned
        // in order of each leaf's first value, so this is also the order of
        // first occurrence.
        let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); column.leaf_count()];
        for value in column.distinct_values() {
            clusters[value.leaf_id() as usize].push(value.index());
        }

        // Constant discovery may refine each cluster's pattern; it reads the
        // cached token slices and counts each distinct value once.
        // Non-conforming values (only possible with a dominance threshold
        // below 1.0) are split off into a cluster keyed by the original
        // pattern.
        let mut final_clusters: Vec<(Pattern, Vec<usize>)> = Vec::new();
        for (leaf_id, members) in clusters.into_iter().enumerate() {
            let pattern = column
                .leaf_pattern(leaf_id as u32)
                .expect("leaf-ids below leaf_count are live")
                .clone();
            if self.options.discover_constants {
                let streams: Vec<(&str, &[TokenSlice])> = members
                    .iter()
                    .map(|&v| {
                        let value = column.distinct(v);
                        (value.text(), value.token_slices())
                    })
                    .collect();
                let (refined, conforming) =
                    discover_constants_cached(&pattern, &streams, &self.options.constant_options);
                if conforming.len() == members.len() {
                    final_clusters.push((refined, members));
                } else {
                    let conforming_values: Vec<usize> =
                        conforming.iter().map(|&i| members[i]).collect();
                    let rest: Vec<usize> = members
                        .iter()
                        .copied()
                        .filter(|v| !conforming_values.contains(v))
                        .collect();
                    final_clusters.push((refined, conforming_values));
                    final_clusters.push((pattern, rest));
                }
            } else {
                final_clusters.push((pattern, members));
            }
        }

        // Merge clusters whose refined patterns collide.
        let mut merged: Vec<(Pattern, Vec<usize>)> = Vec::new();
        for (pattern, members) in final_clusters {
            if let Some(existing) = merged.iter_mut().find(|(p, _)| *p == pattern) {
                existing.1.extend(members);
            } else {
                merged.push((pattern, members));
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clx_pattern::parse_pattern;

    fn phone_data() -> Vec<&'static str> {
        vec![
            "(734) 645-8397",
            "(734) 763-1147",
            "(734)586-7252",
            "734-422-8073",
            "734-936-2447",
            "734.236.3466",
            "N/A",
        ]
    }

    #[test]
    fn initial_clustering_groups_by_pattern() {
        let h = PatternProfiler::new().profile(&phone_data());
        // 5 distinct leaf patterns: "(ddd) ddd-dddd", "(ddd)ddd-dddd",
        // "ddd-ddd-dddd", "ddd.ddd.dddd", "N/A".
        assert_eq!(h.leaves().len(), 5);
        assert_eq!(h.total_rows(), 7);
        h.check_invariants().unwrap();
    }

    #[test]
    fn leaves_are_ordered_by_cluster_size() {
        let h = PatternProfiler::new().profile(&phone_data());
        let sizes: Vec<usize> = h.leaves().iter().map(|n| n.size()).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(sizes, sorted);
    }

    #[test]
    fn hierarchy_has_multiple_levels() {
        let h = PatternProfiler::new().profile(&phone_data());
        assert!(h.level_count() >= 2, "expected refinement to add levels");
        // Top level has fewer clusters than the leaves.
        assert!(h.roots().len() <= h.leaves().len());
        h.check_invariants().unwrap();
    }

    #[test]
    fn email_example_reaches_figure_6_top_pattern() {
        let data = vec!["Bob123@gmail.com", "alice99@yahoo.org", "Zed5@x.io"];
        let h = PatternProfiler::new().profile(&data);
        let top_patterns: Vec<String> = h.roots().iter().map(|n| n.pattern.to_string()).collect();
        assert!(
            top_patterns.contains(&"<AN>+'@'<AN>+'.'<AN>+".to_string()),
            "top level should contain the Figure 6 pattern, got {top_patterns:?}"
        );
    }

    #[test]
    fn constant_discovery_is_applied() {
        let data = vec!["Dr. Eran Yahav", "Dr. Bill Gates", "Dr. Oege Moor"];
        let h = PatternProfiler::new().profile(&data);
        let leaf_patterns: Vec<String> = h.leaves().iter().map(|n| n.pattern.to_string()).collect();
        assert!(
            leaf_patterns.iter().any(|p| p.contains("'Dr. '")),
            "expected the constant prefix to be discovered, got {leaf_patterns:?}"
        );
    }

    #[test]
    fn constant_discovery_can_be_disabled() {
        let data = vec!["Dr. Eran Yahav", "Dr. Bill Gates", "Dr. Oege Moor"];
        let options = ProfilerOptions {
            discover_constants: false,
            ..Default::default()
        };
        let h = PatternProfiler::with_options(options).profile(&data);
        let leaf_patterns: Vec<String> = h.leaves().iter().map(|n| n.pattern.to_string()).collect();
        assert!(leaf_patterns.iter().all(|p| !p.contains("'Dr. '")));
    }

    #[test]
    fn every_row_matches_its_leaf_pattern() {
        let data = phone_data();
        let h = PatternProfiler::new().profile(&data);
        for (i, s) in data.iter().enumerate() {
            let leaf = h.leaf_of_row(i).expect("row must be in a leaf");
            assert!(
                leaf.pattern.matches(s),
                "leaf pattern {} must match row {s:?}",
                leaf.pattern
            );
        }
    }

    #[test]
    fn roots_cover_all_leaf_patterns() {
        let data = phone_data();
        let h = PatternProfiler::new().profile(&data);
        for leaf in h.leaves() {
            let covered = h
                .roots()
                .iter()
                .any(|root| root.pattern.covers(&leaf.pattern));
            assert!(covered, "leaf {} not covered by any root", leaf.pattern);
        }
    }

    #[test]
    fn empty_input() {
        let h = PatternProfiler::new().profile::<&str>(&[]);
        assert_eq!(h.total_rows(), 0);
        assert!(h.leaves().is_empty());
        h.check_invariants().unwrap();
    }

    #[test]
    fn identical_rows_form_one_cluster() {
        let data = vec!["same", "same", "same"];
        let h = PatternProfiler::new().profile(&data);
        assert_eq!(h.leaves().len(), 1);
        assert_eq!(h.leaves()[0].size(), 3);
    }

    #[test]
    fn repeated_values_do_not_fold_into_one_literal() {
        // A single distinct value repeated N times is no evidence of
        // constancy: the leaf must keep its base tokens (extractable by the
        // synthesizer) instead of freezing into the literal 'Dr. Eran Yahav'.
        let data = vec!["Dr. Eran Yahav"; 40];
        let h = PatternProfiler::new().profile(&data);
        assert_eq!(h.leaves().len(), 1);
        let leaf = &h.leaves()[0];
        assert_eq!(leaf.size(), 40);
        assert_eq!(leaf.pattern, clx_pattern::tokenize("Dr. Eran Yahav"));
    }

    #[test]
    fn profile_column_equals_profile_and_runs_on_distinct_values() {
        let data: Vec<String> = (0..500)
            .map(|i| match i % 5 {
                0 | 1 => "(734) 645-8397".to_string(),
                2 => "734-422-8073".to_string(),
                3 => format!("73{}.236.3466", i % 7),
                _ => "N/A".to_string(),
            })
            .collect();
        let column = Column::from_rows(data.clone());
        assert!(column.distinct_count() < 15);
        let via_rows = PatternProfiler::new().profile(&data);
        let via_column = PatternProfiler::new().profile_column(&column);
        assert_eq!(via_rows.pattern_summary(), via_column.pattern_summary());
        assert_eq!(via_column.total_rows(), 500);
        via_column.check_invariants().unwrap();
        // Every row index is fanned back out to its leaf.
        for (i, s) in data.iter().enumerate() {
            let leaf = via_column.leaf_of_row(i).expect("row in a leaf");
            assert!(leaf.pattern.matches(s), "{s:?} vs {}", leaf.pattern);
        }
    }

    #[test]
    fn examples_are_limited() {
        let data: Vec<String> = (0..20).map(|i| format!("{i:04}")).collect();
        let h = PatternProfiler::new().profile(&data);
        for node in h.nodes() {
            assert!(node.examples.len() <= 3);
        }
    }

    #[test]
    fn custom_strategies_control_depth() {
        let options = ProfilerOptions {
            strategies: vec![GeneralizationStrategy::QuantifierToPlus],
            ..Default::default()
        };
        let h = PatternProfiler::with_options(options).profile(&phone_data());
        assert!(h.level_count() <= 2);
    }

    #[test]
    fn heterogeneous_clusters_can_share_parent() {
        let data = vec!["id-1", "id-22", "id-333"];
        let h = PatternProfiler::new().profile(&data);
        // Three leaves (different digit counts) but a single level-1 parent.
        // Note: constant discovery folds "id-" but the structure holds.
        assert!(h.leaves().len() <= 3);
        assert_eq!(h.roots().len(), 1);
        let root = &h.roots()[0];
        assert_eq!(root.size(), 3);
    }

    #[test]
    fn find_pattern_works_across_levels() {
        let data = vec!["Bob123@gmail.com", "alice99@yahoo.org"];
        let h = PatternProfiler::new().profile(&data);
        let p = parse_pattern("<AN>+'@'<AN>+'.'<AN>+").unwrap();
        assert!(h.find_pattern(&p).is_some());
    }
}
