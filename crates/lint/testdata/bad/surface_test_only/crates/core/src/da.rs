// Known-bad: `hook` is `pub` in a serving crate, yet only a test (and this
// file's own unit tests) call it. Expected: exactly one serving-surface
// diagnostic, on `hook`. `served` is called from another serving file.

pub fn served() -> u64 {
    hook() + 1
}

pub fn hook() -> u64 {
    1
}

#[cfg(test)]
mod tests {
    #[test]
    fn hook_is_one() {
        assert_eq!(super::hook(), 1);
    }
}
