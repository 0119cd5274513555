// Known-good: every `pub` item here has a deployment caller, collides with
// a name one uses, or carries a waiver. Expected: clean.

pub const MAX_KEYS: usize = 64;

pub fn from_another_serving_file() -> usize {
    MAX_KEYS
}

pub fn from_the_ledger() -> usize {
    1
}

pub fn from_an_example() -> usize {
    2
}

pub struct Window;

impl Window {
    /// Only tests call this one, but another type's `len` is served, so
    /// the name counts as used.
    pub fn len(&self) -> usize {
        0
    }

    // authdb-lint: allow(serving-surface): read by the window tests until the windowed verifier serves it
    pub fn hook(&self) -> usize {
        3
    }
}
