//! The Preview Table of Figure 8: a side-by-side rendering of input and
//! output for a sample of the data, used to visualize the effect of each
//! suggested `Replace` operation before the user commits to it.

use crate::session::{ClxError, ClxSession, Labelled};

/// One row of a preview table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreviewRow {
    /// The raw input value.
    pub input: String,
    /// The value after applying the current program.
    pub output: String,
    /// `true` when the value was changed.
    pub changed: bool,
}

/// A preview of the transformation over a sample of the column (Figure 8).
#[derive(Debug, Clone, Default)]
pub struct PreviewTable {
    /// The sampled rows.
    pub rows: Vec<PreviewRow>,
}

impl PreviewTable {
    /// Render the two-column table as text.
    pub fn render(&self) -> String {
        let left_width = self
            .rows
            .iter()
            .map(|r| r.input.chars().count())
            .max()
            .unwrap_or(10)
            .max("Input Data".len());
        let mut out = format!("{:<left_width$}  | Output Data\n", "Input Data");
        out.push_str(&format!("{:-<left_width$}--+------------\n", ""));
        for row in &self.rows {
            out.push_str(&format!("{:<left_width$}  | {}\n", row.input, row.output));
        }
        out
    }

    /// Number of sampled rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the preview has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl ClxSession<Labelled> {
    /// Build a Preview Table over the first `sample` rows of the column.
    /// Rows from every leaf cluster are included so the preview shows the
    /// effect of each suggested operation, as in Figure 8 of the paper.
    /// (Like every transform-phase method, `preview` exists only on a
    /// labelled session.)
    pub fn preview(&self, sample: usize) -> Result<PreviewTable, ClxError> {
        let report = self.apply()?;
        let column = self.data();
        let mut rows = Vec::new();
        // Rows seen so far per leaf pattern, indexed by the column's
        // leaf-id (one leaf pattern per leaf-id).
        let mut per_pattern_seen = vec![0usize; column.leaf_count()];
        for (row, outcome) in report.iter_rows().enumerate() {
            let value = column.distinct(column.distinct_index_of(row));
            let seen = &mut per_pattern_seen[value.leaf_id() as usize];
            *seen += 1;
            // Keep at most `sample` examples per distinct pattern.
            if *seen <= sample {
                rows.push(PreviewRow {
                    input: value.text().to_string(),
                    output: outcome.value().to_string(),
                    changed: outcome.is_transformed(),
                });
            }
        }
        Ok(PreviewTable { rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clx_pattern::tokenize;

    fn session() -> ClxSession<Labelled> {
        let data: Vec<String> = vec![
            "(734) 645-8397".into(),
            "(734) 763-1147".into(),
            "(734)586-7252".into(),
            "734-422-8073".into(),
            "734.236.3466".into(),
            "N/A".into(),
        ];
        ClxSession::new(data)
            .label(tokenize("734-422-8073"))
            .unwrap()
    }

    #[test]
    fn preview_covers_every_pattern() {
        let s = session();
        let preview = s.preview(1).unwrap();
        // One row per distinct leaf pattern (5 patterns in the data).
        assert_eq!(preview.len(), 5);
        assert!(!preview.is_empty());
        // Transformed rows are marked as changed; flagged/conforming are not.
        let changed: Vec<bool> = preview.rows.iter().map(|r| r.changed).collect();
        assert!(changed.iter().any(|&c| c));
        assert!(changed.iter().any(|&c| !c));
    }

    #[test]
    fn preview_sample_limits_rows_per_pattern() {
        let s = session();
        let one = s.preview(1).unwrap().len();
        let two = s.preview(2).unwrap();
        assert!(two.len() > one);
        assert_eq!(two.len(), 6); // 2 rows for the paren-space cluster, 1 each for the rest

        // The sample is the first rows of each leaf pattern, in row order.
        let row = |input: &str, output: &str, changed| PreviewRow {
            input: input.into(),
            output: output.into(),
            changed,
        };
        assert_eq!(
            two.rows,
            vec![
                row("(734) 645-8397", "734-645-8397", true),
                row("(734) 763-1147", "734-763-1147", true),
                row("(734)586-7252", "734-586-7252", true),
                row("734-422-8073", "734-422-8073", false),
                row("734.236.3466", "734-236-3466", true),
                row("N/A", "N/A", false),
            ]
        );
    }

    #[test]
    fn render_is_a_two_column_table() {
        let s = session();
        let text = s.preview(1).unwrap().render();
        assert!(text.starts_with("Input Data"));
        assert!(text.contains("| Output Data"));
        assert!(text.contains("(734) 645-8397"));
        assert!(text.contains("734-645-8397"));
        // every data row appears on its own line with the separator
        assert!(text.lines().skip(2).all(|l| l.contains(" | ")));
    }

    #[test]
    fn empty_preview_renders_header_only() {
        let s = ClxSession::new(Vec::new()).label(tokenize("123")).unwrap();
        let preview = s.preview(3).unwrap();
        assert!(preview.is_empty());
        assert_eq!(preview.render().lines().count(), 2);
    }
}
