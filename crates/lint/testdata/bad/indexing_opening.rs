// Known-bad: a checkpoint's exposure opening that trusts the server's chunk
// list to be non-empty. `Exposure` is seeded by owner name, so this is
// scanned though no `Verifier` method in the fixture calls it.
// Expected: exactly one panic-free-decode diagnostic (the index).

impl Exposure {
    pub fn opens_to_root(&self) -> bool {
        let first = self.chunks[0];
        leaf_digest(&first.1) == self.root
    }
}
