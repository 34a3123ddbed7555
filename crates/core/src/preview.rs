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
        let mut rows = Vec::new();
        let mut per_pattern_seen: Vec<(String, usize)> = Vec::new();
        for (row, outcome) in report.iter_rows().enumerate() {
            let value = self.data().distinct(self.data().distinct_index_of(row));
            // The row's leaf pattern is already cached by the column.
            let key = value.leaf().notation();
            let seen = match per_pattern_seen.iter_mut().find(|(k, _)| *k == key) {
                Some((_, count)) => {
                    *count += 1;
                    *count
                }
                None => {
                    per_pattern_seen.push((key, 1));
                    1
                }
            };
            // Keep at most `sample` examples per distinct pattern.
            if seen <= sample {
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
        let two = s.preview(2).unwrap().len();
        assert!(two > one);
        assert_eq!(two, 6); // 2 rows for the paren-space cluster, 1 each for the rest
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
