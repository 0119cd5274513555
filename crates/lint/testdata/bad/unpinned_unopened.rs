// Known-bad: the withheld-opening rejection declared but never pinned — a
// verifier could stop producing it (reading a left-out chunk as "never
// marked") and no catalog arm or test would notice.
// Expected: exactly one catalog-coverage diagnostic (CheckpointUnopened).

pub enum VerifyError {
    BadCheckpoint,
    CheckpointUnopened { rid: u64 },
}

#[cfg(test)]
mod tests {
    use super::VerifyError;

    #[test]
    fn doctored_opening_is_rejected() {
        assert!(matches!(check(), Err(VerifyError::BadCheckpoint)));
    }
}
