//! Chunked parallel execution over whole `&[String]` columns.
//!
//! This is the per-row half of the executor: every row is tokenized to
//! dispatch it. Callers holding a [`clx_column::Column`] (or streaming
//! chunks) should prefer the column paths
//! ([`CompiledProgram::execute_column`],
//! [`crate::ColumnStream::push_rows`]), which decide each *distinct* value
//! once and dispatch by dense integer leaf-id.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::compiled::CompiledProgram;
use crate::dispatch::DispatchCache;
use crate::report::{BatchReport, ChunkReport, RowOutcome};

/// Tuning knobs for [`CompiledProgram::execute_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {
    /// Worker threads; `0` means one per available CPU.
    pub threads: usize,
    /// Rows per chunk; `0` picks a size that gives each worker several
    /// chunks (for load balancing) without chunk bookkeeping dominating.
    pub chunk_size: usize,
}

impl ExecOptions {
    fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    fn resolved_chunk_size(&self, rows: usize, threads: usize) -> usize {
        if self.chunk_size > 0 {
            return self.chunk_size;
        }
        // Aim for ~4 chunks per worker, within sane bounds.
        (rows / (threads * 4).max(1)).clamp(256, 65_536)
    }
}

impl CompiledProgram {
    /// Execute the program over a column with default options.
    pub fn execute(&self, column: &[String]) -> BatchReport {
        self.execute_with(column, ExecOptions::default())
    }

    /// Execute the program over a column: the column is cut into chunks,
    /// worker threads pull chunks off a shared queue (each with its own
    /// [`DispatchCache`]), and the per-chunk reports merge back in input
    /// order.
    pub fn execute_with(&self, column: &[String], options: ExecOptions) -> BatchReport {
        if column.is_empty() {
            return BatchReport::empty(self.target.clone());
        }
        let threads = options.resolved_threads();
        let chunk_size = options.resolved_chunk_size(column.len(), threads);
        let chunks: Vec<&[String]> = column.chunks(chunk_size).collect();
        let workers = threads.min(chunks.len());
        let mut caches: Vec<DispatchCache> = (0..workers).map(|_| DispatchCache::new()).collect();

        if workers <= 1 {
            let cache = &mut caches[0];
            let reports = chunks
                .iter()
                .enumerate()
                .map(|(i, chunk)| self.execute_chunk(i, chunk, cache))
                .collect();
            return BatchReport::from_chunks(self.target.clone(), reports);
        }

        let next = &AtomicUsize::new(0);
        let slots: &Vec<Mutex<Option<ChunkReport>>> =
            &(0..chunks.len()).map(|_| Mutex::new(None)).collect();
        let chunks = &chunks;
        std::thread::scope(|scope| {
            for cache in &mut caches {
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= chunks.len() {
                        break;
                    }
                    let report = self.execute_chunk(i, chunks[i], cache);
                    *slots[i].lock().expect("chunk slot poisoned") = Some(report);
                });
            }
        });
        let reports = slots
            .iter()
            .map(|slot| {
                slot.lock()
                    .expect("chunk slot poisoned")
                    .take()
                    .expect("every chunk index was claimed by a worker")
            })
            .collect();
        BatchReport::from_chunks(self.target.clone(), reports)
    }

    /// Execute one chunk sequentially with a caller-provided dispatch cache
    /// (reusing a cache across chunks amortizes leaf decisions).
    pub fn execute_chunk(
        &self,
        index: usize,
        rows: &[String],
        cache: &mut DispatchCache,
    ) -> ChunkReport {
        let outcomes: Vec<RowOutcome> = rows
            .iter()
            .map(|value| self.transform_one(cache, value))
            .collect();
        ChunkReport::new(index, outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clx_pattern::tokenize;
    use clx_unifi::{Branch, Expr, Program, StringExpr};

    fn dash_program() -> (Program, clx_pattern::Pattern) {
        // (ddd) ddd-dddd and (ddd)ddd-dddd -> ddd-ddd-dddd
        let program = Program::new(vec![
            Branch::new(
                tokenize("(734) 645-8397"),
                Expr::concat(vec![
                    StringExpr::extract(2),
                    StringExpr::const_str("-"),
                    StringExpr::extract(5),
                    StringExpr::const_str("-"),
                    StringExpr::extract(7),
                ]),
            ),
            Branch::new(
                tokenize("(734)586-7252"),
                Expr::concat(vec![
                    StringExpr::extract(2),
                    StringExpr::const_str("-"),
                    StringExpr::extract(4),
                    StringExpr::const_str("-"),
                    StringExpr::extract(6),
                ]),
            ),
        ]);
        (program, tokenize("734-422-8073"))
    }

    fn column(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| match i % 4 {
                0 => format!(
                    "({:03}) {:03}-{:04}",
                    100 + i % 800,
                    200 + i % 700,
                    i % 9999
                ),
                1 => format!("({:03}){:03}-{:04}", 100 + i % 800, 200 + i % 700, i % 9999),
                2 => format!("{:03}-{:03}-{:04}", 100 + i % 800, 200 + i % 700, i % 9999),
                _ => "N/A".to_string(),
            })
            .collect()
    }

    #[test]
    fn parallel_equals_sequential() {
        let (program, target) = dash_program();
        let compiled = CompiledProgram::compile(&program, &target).unwrap();
        let data = column(2_000);
        let sequential = compiled.execute_with(
            &data,
            ExecOptions {
                threads: 1,
                chunk_size: 0,
            },
        );
        let parallel = compiled.execute_with(
            &data,
            ExecOptions {
                threads: 8,
                chunk_size: 64,
            },
        );
        assert_eq!(
            sequential.iter_rows().collect::<Vec<_>>(),
            parallel.iter_rows().collect::<Vec<_>>()
        );
        assert_eq!(sequential.stats, parallel.stats);
        assert_eq!(parallel.chunk_count, data.len().div_ceil(64));
    }

    #[test]
    fn outcomes_are_correct_and_ordered() {
        let (program, target) = dash_program();
        let compiled = CompiledProgram::compile(&program, &target).unwrap();
        let data = column(999);
        let report = compiled.execute_with(
            &data,
            ExecOptions {
                threads: 4,
                chunk_size: 100,
            },
        );
        assert_eq!(report.len(), data.len());
        for (row, input) in report.iter_rows().zip(&data) {
            match input.chars().next() {
                Some('(') => assert!(row.is_transformed(), "{input} -> {row:?}"),
                Some('N') => assert!(row.is_flagged(), "{input} -> {row:?}"),
                _ => assert!(row.is_conforming(), "{input} -> {row:?}"),
            }
            if !row.is_flagged() {
                assert!(target.matches(row.value()), "{row:?}");
            }
        }
        assert_eq!(report.stats.rows(), 999);
    }

    #[test]
    fn empty_column() {
        let (program, target) = dash_program();
        let compiled = CompiledProgram::compile(&program, &target).unwrap();
        let report = compiled.execute(&[]);
        assert!(report.is_empty());
        assert_eq!(report.chunk_count, 0);
    }

    #[test]
    fn auto_options_handle_any_size() {
        let (program, target) = dash_program();
        let compiled = CompiledProgram::compile(&program, &target).unwrap();
        for n in [1, 2, 255, 256, 257, 5_000] {
            let report = compiled.execute(&column(n));
            assert_eq!(report.len(), n, "size {n}");
        }
    }
}
