//! `experiments --check`: an arm against its recorded block.
//!
//! `experiments_output.txt` is `experiments all` — one block per arm in
//! registry order, each followed by a blank line — and every number in it
//! is exact for its seed. Rendering an arm and comparing it with its block
//! is therefore a gate, not a heuristic: a change that moves a calibrated
//! figure shows up as a diff of that figure.

use crate::{Arm, REGISTRY};

/// Where the recorded output lives, wherever the binary is run from.
pub const RECORDED_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../experiments_output.txt");

/// Run `arm` and compare what it renders with its block of `recorded`
/// (the text of `experiments_output.txt`). `Err` is a unified diff from
/// the recorded block to the rendered one, or why no block was found.
pub fn check(arm: &Arm, recorded: &str) -> Result<(), String> {
    let (name, run) = *arm;
    let blocks: Vec<&str> = recorded.split_terminator("\n\n").collect();
    let at = REGISTRY.iter().position(|(known, _)| *known == name);
    let (Some(at), true) = (at, blocks.len() == REGISTRY.len()) else {
        return Err(format!(
            "no recorded block for {name}: {} blocks recorded for {} arms",
            blocks.len(),
            REGISTRY.len()
        ));
    };
    let rendered = run().to_string();
    let rendered = rendered.strip_suffix('\n').unwrap_or(&rendered);
    if rendered == blocks[at] {
        return Ok(());
    }
    Err(format!(
        "--- experiments_output.txt ({name})\n+++ experiments {name}\n{}",
        unified_diff(blocks[at], rendered)
    ))
}

/// Line diff of `old` → `new` as one unified hunk with the whole of both
/// texts as context (blocks are a few dozen lines): common lines by
/// longest common subsequence, ` ` / `-` / `+` prefixes.
fn unified_diff(old: &str, new: &str) -> String {
    let (a, b): (Vec<&str>, Vec<&str>) = (old.lines().collect(), new.lines().collect());
    // lcs[i][j]: length of the longest common subsequence of a[i..], b[j..].
    let mut lcs = vec![vec![0usize; b.len() + 1]; a.len() + 1];
    for i in (0..a.len()).rev() {
        for j in (0..b.len()).rev() {
            lcs[i][j] = if a[i] == b[j] {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    let mut out = format!("@@ -1,{} +1,{} @@\n", a.len(), b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let (sign, line) = if i < a.len() && j < b.len() && a[i] == b[j] {
            (i, j) = (i + 1, j + 1);
            (' ', a[i - 1])
        } else if j == b.len() || (i < a.len() && lcs[i + 1][j] >= lcs[i][j + 1]) {
            i += 1;
            ('-', a[i - 1])
        } else {
            j += 1;
            ('+', b[j - 1])
        };
        out.push(sign);
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Column, Table};

    #[test]
    fn diff_marks_changed_lines_and_keeps_the_rest_as_context() {
        let diff = unified_diff("title\na 1\nb 2\nc 3", "title\na 1\nb 9\nc 3\nd 4");
        assert_eq!(
            diff,
            "@@ -1,4 +1,5 @@\n title\n a 1\n-b 2\n+b 9\n c 3\n+d 4\n"
        );
        assert_eq!(unified_diff("x", "x"), "@@ -1,1 +1,1 @@\n x\n");
    }

    /// A recorded file with `block` in `fig3`'s place.
    fn recorded_with(block: &str) -> String {
        let mut text = format!("{block}\n\n");
        for (name, _) in &REGISTRY[1..] {
            text.push_str(&format!("block of {name}\n\n"));
        }
        text
    }

    fn two_row_table() -> Table {
        let mut t = Table::new("T", vec![Column::num("x", 4, 0)]);
        t.row(crate::cells![1.0]);
        t.row(crate::cells![2.0]);
        t
    }

    #[test]
    fn check_passes_on_the_recorded_block_and_diffs_a_moved_number() {
        let arm: Arm = ("fig3", two_row_table);
        let rendered = two_row_table().to_string();
        let block = rendered.trim_end_matches('\n');
        assert_eq!(check(&arm, &recorded_with(block)), Ok(()));

        let moved = block.replace('2', "3");
        let diff = check(&arm, &recorded_with(&moved)).unwrap_err();
        assert!(diff.starts_with("--- experiments_output.txt (fig3)\n+++ experiments fig3\n@@"));
        let changed: Vec<&str> = diff
            .lines()
            .skip(3)
            .filter(|l| !l.starts_with(' '))
            .collect();
        assert_eq!(changed.len(), 2, "{diff}");
        assert!(changed[0].starts_with('-') && changed[0].ends_with('3'));
        assert!(changed[1].starts_with('+') && changed[1].ends_with('2'));
    }

    #[test]
    fn check_refuses_a_file_that_is_not_one_block_per_arm() {
        let arm: Arm = ("fig3", two_row_table);
        let err = check(&arm, "only one block\n\n").unwrap_err();
        assert!(err.contains("1 blocks recorded"), "{err}");
    }
}
