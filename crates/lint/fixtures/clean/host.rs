//! Clean host import: the argument count is matched, not assumed, and the
//! guest-chosen length is checked by splitting, not by slicing.

impl AppHost for CarefulStore {
    fn call(&mut self, name: &str, args: &[u64], memory: &mut Memory) -> Result<Vec<u64>, String> {
        let &[addr, len] = args else {
            return Err(wrong_count(name, args.len()));
        };
        let payload = memory.read(addr, len).map_err(describe)?;
        let Some((user_id, _share)) = payload.split_first_chunk::<8>() else {
            return Err(too_short(len));
        };
        self.remember(u64::from_le_bytes(*user_id));
        Ok(vec![0])
    }
}
