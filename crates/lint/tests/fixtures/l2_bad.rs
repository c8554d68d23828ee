// L2 fixture: a RefCell storage borrow held across a poll point — a
// handler delivered by the poll can touch the same container and panic
// on the double borrow.

fn drain(loc: &Location, store: &RefCell<Vec<u64>>) {
    let guard = store.borrow_mut();
    loc.poll(); // EXPECT-L2
    drop(guard);
}

fn read_under_guard(loc: &Location, store: &RefCell<Vec<u64>>, h: Handle) {
    let guard = store.borrow();
    let v = loc.sync_rmi(1, h, |c: &Counter, _| c.get()); // EXPECT-L2
    report(&guard, v);
}

fn count_under_guard(loc: &Location, store: &RefCell<Vec<u64>>) {
    let guard = store.borrow_mut();
    loc.allreduce_sum(guard.len() as u64); // EXPECT-L2
    drop(guard);
}

fn scan(view: &VectorView) {
    view.with_slice(|s| {
        let mut sum = 0;
        for x in s {
            sum += x;
        }
        rmi_fence(); // EXPECT-L2
        sum
    });
}
