use proptest::prelude::*;

proptest! {
    #[test]
    fn locks(x in any::<u64>()) {
        *authdb_storage::lock().lock() = x;
    }
}
