//! Seeded violations for the panic pass on the sandbox boundary: a host
//! import that trusts the argument count the guest module declared and a
//! length the guest chose.

impl AppHost for LeakyStore {
    fn call(&mut self, name: &str, args: &[u64], memory: &mut Memory) -> Result<Vec<u64>, String> {
        let (addr, len) = (args[0], args[1]);
        let payload = memory.read(addr, len).map_err(describe)?;
        let user_id = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
        self.remember(user_id);
        Ok(vec![0])
    }
}
