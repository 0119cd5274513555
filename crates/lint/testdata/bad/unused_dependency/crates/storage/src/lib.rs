pub fn frame(body: &[u8]) -> Vec<u8> {
    body.to_vec()
}
