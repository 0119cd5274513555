// Known-bad: a waiver with no justification is itself a diagnostic.
// Expected: exactly one waiver diagnostic (line of the comment).

fn helper(x: u64) -> u64 {
    // authdb-lint: allow(panic-free-decode)
    x + 1
}
