//! Fixture: rule `io-free` — the SoC's command front end sending a hit
//! itself, or looking the waiting client's connection up instead of
//! handing its index back. A frame pool and connection indices are fine.

fn on_client_cmd(&mut self, net: &Net, conns: &mut ConnTable<()>) {}
fn on_fwd_reply(&mut self, master: &Channel) -> Option<usize> {}
fn on_fwd_reply(&mut self, payload: &Frame, version: u64) -> Option<(usize, Frame)> {
    // The Channel in prose is not code.
    let pool: &FramePool = &self.pool;
}
