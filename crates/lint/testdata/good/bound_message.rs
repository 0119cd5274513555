// Known-good: sign-message builders that bind their domains — an
// epoch/shard reference, a unique byte-string tag, and a delegating
// builder. Expected: clean.

fn summary_message(epoch: u64, shard: u64, ts: u64) -> Vec<u8> {
    let mut msg = Vec::with_capacity(32);
    msg.extend_from_slice(b"fixture-summary:");
    msg.extend_from_slice(&epoch.to_be_bytes());
    msg.extend_from_slice(&shard.to_be_bytes());
    msg.extend_from_slice(&ts.to_be_bytes());
    msg
}

fn root_message(digest: &[u8]) -> Vec<u8> {
    let mut msg = Vec::with_capacity(24);
    msg.extend_from_slice(b"fixture-root:");
    msg.extend_from_slice(digest);
    msg
}

fn outer_message(digest: &[u8]) -> Vec<u8> {
    root_message(digest)
}
