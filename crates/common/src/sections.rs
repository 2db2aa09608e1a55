//! The one reader of the config file's minimal TOML subset: `[section]`
//! headers over `key = value` lines, with `#` comments and blank lines
//! skipped and keys and values trimmed of spaces and quotes. The peer map
//! (`[peers]`, [`crate::PeerMap::parse_toml`]) and the node options
//! (`[node]`, [`crate::NodeOptions::apply_toml`]) each read their section
//! of the same file through it.

/// Each `key = value` line under `header` (say `"[peers]"`; `""` for the
/// lines above the first header), split at its first `=` and trimmed. A
/// line there without `=` comes back whole, as the error.
pub fn entries<'a>(
    text: &'a str,
    header: &'a str,
) -> impl Iterator<Item = Result<(&'a str, &'a str), &'a str>> {
    let mut current = "";
    text.lines().map(content).filter_map(move |line| {
        if line.starts_with('[') {
            current = line;
            return None;
        }
        if line.is_empty() || current != header {
            return None;
        }
        let unquote = |s: &'a str| s.trim().trim_matches('"');
        let entry = line.split_once('=').map(|(k, v)| (unquote(k), unquote(v)));
        Some(entry.ok_or(line))
    })
}

/// Whether `text` has a line that is `header`.
pub fn has_header(text: &str, header: &str) -> bool {
    text.lines().any(|raw| content(raw) == header)
}

/// A line without its `#` comment and surrounding spaces.
fn content(raw: &str) -> &str {
    raw.split_once('#').map_or(raw, |(before, _)| before).trim()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_of_one_section_skip_comments_blanks_and_the_others() {
        let text = "top = 1\n\n[a] # first\nx = \"1\"  # one\n# y = 2\n[b]\nz = 3\n[a]\nw=4\n";
        let a: Vec<_> = entries(text, "[a]").collect();
        assert_eq!(a, [Ok(("x", "1")), Ok(("w", "4"))]);
        assert_eq!(entries(text, "").collect::<Vec<_>>(), [Ok(("top", "1"))]);
        assert_eq!(
            entries("[a]\njust a line\n", "[a]").next(),
            Some(Err("just a line"))
        );
        assert!(has_header(text, "[b]") && !has_header(text, "[c]"));
    }
}
