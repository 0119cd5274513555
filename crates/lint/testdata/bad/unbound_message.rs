// Known-bad: a sign-message builder that binds no domain — no epoch or
// shard reference, no byte-string tag, no delegation to another builder.
// Expected: exactly one domain-binding diagnostic (line of the fn).

fn receipt_message(rid: u64, ts: u64) -> Vec<u8> {
    let mut msg = Vec::with_capacity(16);
    msg.extend_from_slice(&rid.to_be_bytes());
    msg.extend_from_slice(&ts.to_be_bytes());
    msg
}
