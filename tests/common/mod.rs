//! The field-digest pin of the golden and chaos tests: one FNV-1a digest
//! per top-level field of an `ExperimentResult`'s `{:#?}` render, with no
//! per-field code. A field starts on a line that begins with exactly four
//! spaces and then `name: `, and its text runs up to the next such line.

use cluster::ExperimentResult;

/// Continues an FNV-1a hash over `s` from state `h`.
fn fnv1a(h: u64, s: &str) -> u64 {
    let step = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    s.bytes().fold(h, step)
}

/// Cuts a `{:#?}` render into `(field, text)` rows. Joined, the texts
/// are the render without its first and last lines.
fn cut(render: &str) -> Vec<(String, String)> {
    let body =
        &render[render.find('\n').expect("a header") + 1..=render.rfind("\n}").expect("a close")];
    let mut rows: Vec<(String, String)> = Vec::new();
    for line in body.split_inclusive('\n') {
        match line.strip_prefix("    ").and_then(|l| l.split_once(": ")) {
            Some((name, _)) if !name.starts_with(' ') => rows.push((name.into(), String::new())),
            _ => assert!(!rows.is_empty(), "the render body starts with a field"),
        }
        rows.last_mut().expect("a field").1.push_str(line);
    }
    let joined: String = rows.iter().map(|r| r.1.as_str()).collect();
    assert_eq!(joined, body, "the cut rows must give back the render body");
    rows
}

/// One digest per field, each folded over the renders of `results` in
/// order (every render of an `ExperimentResult` has the same fields).
pub fn field_table(results: &[ExperimentResult]) -> Vec<(String, u64)> {
    let mut table: Vec<(String, u64)> = Vec::new();
    for result in results {
        let rows = cut(&format!("{result:#?}"));
        table.resize(rows.len(), (String::new(), 0xcbf2_9ce4_8422_2325));
        for (row, (name, text)) in table.iter_mut().zip(rows) {
            *row = (name, fnv1a(row.1, &text));
        }
    }
    table
}

/// The fields of `actual` that moved or are new, then the fields of
/// `pinned` that are gone.
pub fn moved_fields(actual: &[(String, u64)], pinned: &[(&str, u64)]) -> Vec<String> {
    let moved = actual
        .iter()
        .filter(|(n, d)| !pinned.contains(&(n.as_str(), *d)));
    let gone = pinned.iter().filter(|p| !actual.iter().any(|a| a.0 == p.0));
    moved
        .map(|a| a.0.clone())
        .chain(gone.map(|p| p.0.to_owned()))
        .collect()
}

/// Asserts that `actual` is the `pinned` table. On a mismatch it names
/// every moved, added or removed field and prints the new table as
/// paste-ready Rust.
pub fn assert_pinned(actual: &[(String, u64)], pinned: &[(&str, u64)]) {
    let moved = moved_fields(actual, pinned).join(", ");
    let rows: String = actual
        .iter()
        .map(|(n, d)| format!("    (\"{n}\", {d:#018x}),\n"))
        .collect();
    assert!(
        moved.is_empty(),
        "pinned fields moved: {moved}\nnew table:\n&[\n{rows}]"
    );
}
