//! Block-parallel execution over raw `&[S]` rows.
//!
//! [`CompiledProgram::execute`] cuts the rows into contiguous blocks and
//! runs each block on its own `std::thread::scope` worker, with a private
//! [`ColumnInterner`] and [`DispatchCache`]: the block is interned (each
//! distinct value stored once, tokenized only when its leaf pattern is new
//! to the block), every distinct value is decided once through the shared
//! chunk helper ([`CompiledProgram::decide_chunk`]), and the block's
//! columnar [`TransformReport`] moves into the merged one. This is
//! the same interned, dense leaf-id path [`crate::ColumnStream::push_rows`]
//! runs, minus the stream's cross-chunk decision cache.

use std::sync::Arc;

use clx_column::ColumnInterner;

use crate::compiled::CompiledProgram;
use crate::dispatch::DispatchCache;
use crate::report::TransformReport;

/// Minimum rows per block before automatic blocking bothers spawning
/// threads.
const AUTO_MIN_BLOCK: usize = 8_192;

/// The automatic block count for `rows` rows: one block below
/// `2 * AUTO_MIN_BLOCK` rows, otherwise one per available CPU, capped so
/// every block keeps at least `AUTO_MIN_BLOCK` rows.
fn auto_block_count(rows: usize) -> usize {
    if rows < 2 * AUTO_MIN_BLOCK {
        return 1;
    }
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    cpus.min(rows / AUTO_MIN_BLOCK).max(1)
}

impl CompiledProgram {
    /// Execute the program over a column of raw rows. Each distinct value
    /// of a block is decided once; the report stores one outcome per
    /// distinct value of each block.
    ///
    /// One block below 16,384 rows, otherwise one per available CPU with
    /// at least 8,192 rows each.
    pub fn execute<S: AsRef<str> + Sync>(&self, rows: &[S]) -> TransformReport {
        self.execute_blocks(rows, auto_block_count(rows.len()))
    }

    /// [`CompiledProgram::execute`] over exactly `blocks` contiguous blocks
    /// (clamped to the row count); the first runs on the calling thread.
    pub(crate) fn execute_blocks<S: AsRef<str> + Sync>(
        &self,
        rows: &[S],
        blocks: usize,
    ) -> TransformReport {
        if rows.is_empty() {
            return TransformReport::empty(Arc::clone(&self.target));
        }
        let block_size = rows.len().div_ceil(blocks.clamp(1, rows.len()));
        let mut blocks = rows.chunks(block_size);
        let first = blocks.next().expect("rows are non-empty");
        let reports = std::thread::scope(|scope| {
            let workers: Vec<_> = blocks
                .map(|block| scope.spawn(move || self.execute_block(block)))
                .collect();
            let mut reports = vec![self.execute_block(first)];
            reports.extend(
                workers
                    .into_iter()
                    .map(|worker| worker.join().expect("block worker panicked")),
            );
            reports
        });
        TransformReport::from_chunks(Arc::clone(&self.target), reports)
    }

    /// Intern one block into a fresh interner and decide its distinct
    /// values through a fresh dispatch cache.
    fn execute_block<S: AsRef<str>>(&self, rows: &[S]) -> TransformReport {
        let mut interner = ColumnInterner::new();
        let mut cache = DispatchCache::new();
        let chunk = interner.chunk(rows);
        let outcomes = self.decide_chunk(&mut cache, &chunk, None, None);
        TransformReport::of_chunk(Arc::clone(&self.target), outcomes, chunk.into_row_map())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::RowOutcome;
    use clx_pattern::{tokenize, Pattern, Quantifier, Token, TokenClass};
    use clx_unifi::{transform_lenient, Branch, Expr, Program, StringExpr, TransformOutcome};
    use proptest::prelude::*;

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
    fn outcomes_are_correct_and_ordered() {
        let (program, target) = dash_program();
        let compiled = CompiledProgram::compile(&program, &target).unwrap();
        let data = column(999);
        let report = compiled.execute_blocks(&data, 4);
        assert_eq!(report.chunk_count, 4);
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
        let report = compiled.execute::<&str>(&[]);
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
            assert_eq!(report.chunk_count, 1, "small inputs run as one block");
        }
        // More blocks than rows: clamped, never an empty block.
        assert_eq!(compiled.execute_blocks(&column(3), 7).chunk_count, 3);
    }

    /// Random patterns over every token class and quantifier, with
    /// transparent and alphanumeric (opaque) literals.
    fn any_pattern() -> impl Strategy<Value = Pattern> {
        let class = || {
            prop_oneof![
                Just(TokenClass::Digit),
                Just(TokenClass::Lower),
                Just(TokenClass::Upper),
                Just(TokenClass::Alpha),
                Just(TokenClass::AlphaNumeric),
            ]
        };
        let token = prop_oneof![
            (class(), 1..4usize).prop_map(|(c, n)| Token::base(c, n)),
            class().prop_map(Token::plus),
            prop_oneof![Just("-"), Just("."), Just(" "), Just("CPT")].prop_map(Token::literal),
        ];
        proptest::collection::vec(token, 1..5).prop_map(Pattern::new)
    }

    /// Short strings over a few letters, digits and separators.
    fn junk_value() -> impl Strategy<Value = String> {
        let c = prop_oneof![
            proptest::char::range('a', 'c'),
            proptest::char::range('A', 'C'),
            proptest::char::range('0', '2'),
            Just(' '),
            Just('.'),
            Just('-'),
        ];
        proptest::collection::vec(c, 0..7).prop_map(|chars| chars.into_iter().collect())
    }

    /// A value matching `pattern` (`+` runs of length 2).
    fn sample(pattern: &Pattern) -> String {
        let mut out = String::new();
        for token in pattern.tokens() {
            if let Some(literal) = token.literal_value() {
                out.push_str(literal);
                continue;
            }
            let n = match token.quantifier {
                Quantifier::Exact(n) => n,
                Quantifier::OneOrMore => 2,
            };
            let c = match token.class {
                TokenClass::Digit | TokenClass::AlphaNumeric => '4',
                TokenClass::Lower | TokenClass::Alpha => 'q',
                _ => 'Q',
            };
            out.extend(std::iter::repeat_n(c, n));
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every block count decides every row exactly as the interpreter
        /// does: the target check first, then the first branch that
        /// evaluates, else flagged (§6.1).
        #[test]
        fn blocks_agree_with_the_interpreter(
            branches in proptest::collection::vec((any_pattern(), 0..2usize), 1..4),
            target in any_pattern(),
            junk in proptest::collection::vec(junk_value(), 0..40),
        ) {
            let program = Program::new(
                branches
                    .into_iter()
                    .map(|(pattern, extract)| {
                        let expr = if extract == 1 {
                            Expr::concat(vec![StringExpr::extract(1), StringExpr::const_str("!")])
                        } else {
                            Expr::concat(vec![StringExpr::const_str("X")])
                        };
                        Branch::new(pattern, expr)
                    })
                    .collect(),
            );
            let compiled = CompiledProgram::compile(&program, &target).unwrap();
            let mut rows: Vec<String> = program.branches.iter().map(|b| sample(&b.pattern)).collect();
            rows.push(sample(&target));
            rows.extend(junk);
            // Repeats inside and across blocks.
            rows.extend(rows.clone());
            let oracle: Vec<RowOutcome> = rows
                .iter()
                .map(|row| {
                    if target.matches(row) {
                        return RowOutcome::Conforming { value: row.as_str().into() };
                    }
                    match transform_lenient(&program, row) {
                        TransformOutcome::Transformed(to) => RowOutcome::Transformed { to: to.into() },
                        TransformOutcome::Flagged(value) => RowOutcome::Flagged { value: value.into() },
                    }
                })
                .collect();
            for blocks in [1, 2, 3, 7] {
                let report = compiled.execute_blocks(&rows, blocks);
                prop_assert!(
                    report.iter_rows().eq(oracle.iter()),
                    "{} blocks diverged from the interpreter", blocks
                );
                prop_assert_eq!(report.stats.rows(), rows.len());
                prop_assert!(report.chunk_count <= blocks);
            }
        }
    }
}
