fn main() {
    println!("{}", authdb_core::api::from_the_ledger());
}
