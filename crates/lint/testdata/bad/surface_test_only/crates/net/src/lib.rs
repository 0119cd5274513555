fn run() -> u64 {
    authdb_core::da::served()
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_unit_test_is_not_a_caller() {
        assert_eq!(authdb_core::da::hook(), 1);
    }
}
