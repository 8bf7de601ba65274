//! The fixture's entry points, called the way a crate's own integration
//! tests would: the dead-surface pass reads this file for names only, and
//! no other pass sees it.

fn drive(input: &mut &[u8], state: &Shared, queue: &Receiver) {
    ingest(input);
    stash(input);
    ingest_bounded(input);
    pump(queue);
    forward(state);
    backward(state);
}
