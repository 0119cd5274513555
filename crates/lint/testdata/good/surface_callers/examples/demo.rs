fn main() {
    println!("{}", authdb::core::api::from_an_example());
}
