//! Minimal fixed-width table rendering for the experiment binaries.

use llsc_shmem::json;
use std::fmt::Display;

/// A simple right-aligned text table with a title and a header row.
///
/// # Examples
///
/// ```
/// use llsc_bench::table::Table;
/// let mut t = Table::new("demo", ["n", "value"]);
/// t.row(["4", "10"]);
/// let s = t.render();
/// assert!(s.contains("demo"));
/// assert!(s.contains("value"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new<T, I, S>(title: T, headers: I) -> Self
    where
        T: Into<String>,
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table {
            title: title.into(),
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have as many cells as there are headers).
    ///
    /// # Panics
    ///
    /// Panics on a cell-count mismatch.
    pub fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Display,
    {
        let cells: Vec<String> = cells.into_iter().map(|c| c.to_string()).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total.max(self.title.len())));
        out.push('\n');
        let fmt_row = |cells: &[String]| {
            let mut line = String::new();
            for (w, cell) in widths.iter().zip(cells) {
                line.push_str(&format!("{cell:>width$}  ", width = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(total.max(self.title.len())));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// The table's title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table as a JSON object:
    /// `{"title": …, "headers": […], "rows": [[…]]}`.
    ///
    /// All cells are emitted as strings — exactly the strings the text
    /// table shows — so the artifact is a faithful, diffable record of the
    /// printed numbers. Nothing machine-dependent (thread counts, wall
    /// times) is embedded: regenerating with a different `--threads` value
    /// produces a byte-identical file.
    ///
    /// # Examples
    ///
    /// ```
    /// use llsc_bench::table::Table;
    /// let mut t = Table::new("demo", ["n", "value"]);
    /// t.row(["4", "10"]);
    /// let json = t.render_json();
    /// assert_eq!(
    ///     json,
    ///     "{\"title\":\"demo\",\"headers\":[\"n\",\"value\"],\"rows\":[[\"4\",\"10\"]]}"
    /// );
    /// let back = Table::from_json(&json).unwrap();
    /// assert_eq!(back.render(), t.render());
    /// ```
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"title\":");
        json::push_string(&mut out, &self.title);
        out.push_str(",\"headers\":[");
        for (i, h) in self.headers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_string(&mut out, h);
        }
        out.push_str("],\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, cell) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json::push_string(&mut out, cell);
            }
            out.push(']');
        }
        out.push_str("]}");
        out
    }

    /// Renders a group of tables as one artifact:
    /// `{"tables":[…]}` — the format `llsc table`'s `--json`
    /// flag writes, even for a single table.
    pub fn render_json_artifact(tables: &[&Table]) -> String {
        Table::render_json_artifact_with_failures(tables, &[])
    }

    /// The fault-aware artifact: `{"tables":[…],"failures":[…]}`.
    ///
    /// Each failure is an all-string object
    /// `{"trial":"…","seed":"0x…","message":"…"}` recording one isolated
    /// trial panic (see [`llsc_shmem::Sweep::run_fallible`]), extended
    /// with a `"context"` key when the experiment recorded one (the
    /// fault/crash plan summary that makes the trial reproducible from
    /// the artifact alone), and a `"repro"` key holding the failure's serialized
    /// [`llsc_shmem::ReproCase`] when the experiment attached one — the
    /// same document `--repro-dir` writes for `llsc replay` /
    /// `llsc shrink`. All optional keys are omitted when absent, so
    /// legacy artifacts are byte-identical. The
    /// `failures` key is omitted entirely when there are none, so a clean
    /// run's artifact is byte-identical to [`Table::render_json_artifact`]
    /// and to artifacts written before failures were recorded.
    pub fn render_json_artifact_with_failures(
        tables: &[&Table],
        failures: &[llsc_shmem::TrialFailure],
    ) -> String {
        let mut out = String::from("{\"tables\":[");
        for (i, t) in tables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&t.render_json());
        }
        out.push(']');
        if !failures.is_empty() {
            out.push_str(",\"failures\":[");
            for (i, f) in failures.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"trial\":");
                json::push_string(&mut out, &f.index.to_string());
                json::push_field(&mut out, "seed", &format!("{:#018x}", f.seed));
                json::push_field(&mut out, "message", &f.payload);
                if !f.context.is_empty() {
                    json::push_field(&mut out, "context", &f.context);
                }
                if let Some(repro) = &f.repro {
                    json::push_field(&mut out, "repro", repro.trim_end());
                }
                out.push('}');
            }
            out.push(']');
        }
        out.push_str("}\n");
        out
    }

    /// Parses a table back from the [`Table::render_json`] format.
    pub fn from_json(text: &str) -> Result<Table, String> {
        let (value, rest) = json::parse_prefix(text.trim_start())?;
        if !rest.trim_start().is_empty() {
            return Err("trailing data after JSON value".into());
        }
        Table::from_json_value(&value)
    }

    /// Parses a `{"tables":[…]}` artifact back into its tables.
    pub fn from_json_artifact(text: &str) -> Result<Vec<Table>, String> {
        let (value, rest) = json::parse_prefix(text.trim_start())?;
        if !rest.trim_start().is_empty() {
            return Err("trailing data after JSON value".into());
        }
        let tables = value
            .field("tables")
            .ok_or("artifact has no `tables` field")?
            .as_array()
            .ok_or("`tables` is not an array")?;
        tables.iter().map(Table::from_json_value).collect()
    }

    fn from_json_value(value: &json::Value) -> Result<Table, String> {
        let title = value
            .field("title")
            .and_then(json::Value::as_str)
            .ok_or("missing string `title`")?;
        let headers: Vec<String> = value
            .field("headers")
            .and_then(json::Value::as_array)
            .ok_or("missing array `headers`")?
            .iter()
            .map(|h| h.as_str().map(str::to_string).ok_or("non-string header"))
            .collect::<Result<_, _>>()?;
        let mut table = Table::new(title, headers);
        for row in value
            .field("rows")
            .and_then(json::Value::as_array)
            .ok_or("missing array `rows`")?
        {
            let cells: Vec<String> = row
                .as_array()
                .ok_or("non-array row")?
                .iter()
                .map(|c| c.as_str().map(str::to_string).ok_or("non-string cell"))
                .collect::<Result<_, _>>()?;
            if cells.len() != table.headers.len() {
                return Err("row width mismatch in JSON".into());
            }
            table.rows.push(cells);
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("title", ["a", "long-header"]);
        t.row(["1", "2"]);
        t.row(["100", "20000"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "title");
        assert!(lines[2].contains("long-header"));
        // All data lines are equally long after alignment.
        assert_eq!(lines[4].len(), lines[5].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_wrong_width() {
        let mut t = Table::new("t", ["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn json_round_trips_including_escapes() {
        let mut t = Table::new("quo\"ted \\ title\n", ["a", "b"]);
        t.row(["x,y", "tab\there"]);
        t.row(["", "\u{1}"]);
        let back = Table::from_json(&t.render_json()).unwrap();
        assert_eq!(back.title(), t.title());
        assert_eq!(back.headers(), t.headers());
        assert_eq!(back.rows(), t.rows());
    }

    #[test]
    fn artifact_round_trips_multiple_tables() {
        let mut a = Table::new("first", ["n"]);
        a.row(["1"]);
        let b = Table::new("second (empty)", ["x", "y"]);
        let artifact = Table::render_json_artifact(&[&a, &b]);
        assert!(artifact.ends_with('\n'));
        let back = Table::from_json_artifact(&artifact).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].render(), a.render());
        assert_eq!(back[1].render(), b.render());
    }

    #[test]
    fn failure_free_artifact_matches_legacy_format() {
        let mut a = Table::new("t", ["c"]);
        a.row(["1"]);
        assert_eq!(
            Table::render_json_artifact_with_failures(&[&a], &[]),
            Table::render_json_artifact(&[&a]),
            "omitting the failures key keeps clean artifacts byte-identical"
        );
    }

    #[test]
    fn failures_render_next_to_tables_and_stay_parseable() {
        let mut a = Table::new("t", ["c"]);
        a.row(["1"]);
        let failures = vec![llsc_shmem::TrialFailure {
            index: 7,
            seed: 0x1234,
            payload: "budget \"starved\"".to_string(),
            context: String::new(),
            repro: None,
        }];
        let artifact = Table::render_json_artifact_with_failures(&[&a], &failures);
        assert!(artifact.contains("\"failures\":[{\"trial\":\"7\""));
        assert!(artifact.contains("\"seed\":\"0x0000000000001234\""));
        assert!(artifact.contains("budget \\\"starved\\\""));
        // Without context/repro the legacy three-key shape is kept.
        assert!(!artifact.contains("\"context\""));
        assert!(!artifact.contains("\"repro\""));
        // The extra key must not break the artifact parser.
        let back = Table::from_json_artifact(&artifact).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].render(), a.render());
    }

    #[test]
    fn failure_context_and_repro_render_when_present() {
        let mut a = Table::new("t", ["c"]);
        a.row(["1"]);
        let failures = vec![llsc_shmem::TrialFailure {
            index: 2,
            seed: 5,
            payload: "boom".to_string(),
            context: "alg=x n=8 fault-plan:none".to_string(),
            repro: Some("{\"version\":\"1\",\"n\":\"4\"}\n".to_string()),
        }];
        let artifact = Table::render_json_artifact_with_failures(&[&a], &failures);
        assert!(artifact.contains("\"context\":\"alg=x n=8 fault-plan:none\""));
        assert!(artifact.contains("\"seed\":\"0x0000000000000005\""));
        assert!(
            artifact.contains("\"repro\":\"{\\\"version\\\":\\\"1\\\",\\\"n\\\":\\\"4\\\"}\""),
            "the repro document is embedded as an escaped string"
        );
        let back = Table::from_json_artifact(&artifact).unwrap();
        assert_eq!(back.len(), 1, "extra keys stay parseable");
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert!(Table::from_json("{\"title\":\"t\"}").is_err());
        assert!(Table::from_json("[1]").is_err());
        assert!(Table::from_json("{\"title\":\"t\",\"headers\":[\"a\"],\"rows\":[[]]}").is_err());
        assert!(Table::from_json("").is_err());
    }
}
