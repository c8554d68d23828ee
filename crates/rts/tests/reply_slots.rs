//! The reply-slot table behind `RmiFuture` (`location.rs`, `ReplySlots`):
//! a slot exists from its request until its value is taken — or, when the
//! future gives up first, until the late reply lands — and not a moment
//! longer; and its id names one request only.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use stapl_rts::{execute, RmiError, RmiFuture, RtsConfig};

/// A reply that arrives after its future timed out frees the slot instead
/// of sitting in the table until the execution ends: `rmi_timeout_us`
/// exists so that a program can survive a slow peer and carry on.
#[test]
fn a_reply_that_outlives_its_timed_out_future_frees_the_slot() {
    let gave_up = Arc::new(AtomicBool::new(false));
    let cfg = RtsConfig { rmi_timeout_us: 200, ..RtsConfig::default() };
    execute(cfg, 2, |loc| {
        let (h, _rep) = loc.register(7u64);
        loc.barrier();
        if loc.id() == 0 {
            // The handler does not return before the caller has given up.
            let flag = gave_up.clone();
            let fut = loc.split_rmi(1, h, move |v: &u64, _| {
                while !flag.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                *v
            });
            match fut.try_get() {
                Err(RmiError::Timeout { peer: 1, .. }) => {}
                other => panic!("expected a timeout naming location 1, got {other:?}"),
            }
            assert_eq!(loc.reply_slots_in_use(), 1, "the reply is still owed");
            gave_up.store(true, Ordering::Release);
        }
        loc.rmi_fence();
        assert_eq!(loc.reply_slots_in_use(), 0, "location {}", loc.id());
    });
}

#[test]
fn futures_dropped_without_get_leave_no_slot_behind() {
    execute(RtsConfig::default(), 2, |loc| {
        let (h, _rep) = loc.register(7u64);
        loc.barrier();
        let peer = 1 - loc.id();
        for i in 0..1000u64 {
            drop(loc.split_rmi(peer, h, move |v: &u64, _| *v + i));
            drop(loc.split_rmi(loc.id(), h, |v: &u64, _| *v));
        }
        // Dropped before and after its reply arrived: both are freed.
        let unread = loc.split_rmi(peer, h, |v: &u64, _| *v);
        while !unread.is_ready() {}
        drop(unread);
        loc.rmi_fence();
        assert_eq!(loc.reply_slots_in_use(), 0, "location {}", loc.id());
    });
}

#[test]
fn is_ready_tells_the_three_states_apart() {
    execute(RtsConfig::default(), 1, |loc| {
        assert!(RmiFuture::ready(1u8).is_ready(), "a value");
        let (token, fut) = loc.make_reply_slot::<u8>();
        assert!(!fut.is_ready(), "a slot still waiting");
        loc.reply(token, 2);
        assert!(fut.is_ready(), "a slot filled");
        assert_eq!(fut.get(), 2);
    });
}

/// A slot whose future is gone but whose reply is still owed is not handed
/// to the next request; once freed it is, under a new id.
#[test]
fn a_slot_is_not_reused_while_its_reply_is_outstanding() {
    execute(RtsConfig::default(), 1, |loc| {
        let (owed, abandoned) = loc.make_reply_slot::<u8>();
        drop(abandoned);
        let (token, fut) = loc.make_reply_slot::<u8>();
        assert_eq!(loc.reply_slots_in_use(), 2);
        loc.reply(owed, 1);
        assert!(!fut.is_ready(), "the late reply went to its own slot");
        assert_eq!(loc.reply_slots_in_use(), 1);
        loc.reply(token, 2);
        assert_eq!(fut.get(), 2);
        // Both slots are free now; their next tenants are other requests.
        let (again, fut) = loc.make_reply_slot::<u8>();
        let (other, fut2) = loc.make_reply_slot::<u8>();
        assert_eq!(loc.reply_slots_in_use(), 2);
        loc.reply(other, 4);
        loc.reply(again, 3);
        assert_eq!((fut.get(), fut2.get(), loc.reply_slots_in_use()), (3, 4, 0));
    });
}

/// A second reply is a protocol bug; it used to overwrite the first.
#[test]
#[should_panic(expected = "second reply to future slot 0x0 (handler `<reply token>`)")]
fn a_second_reply_to_a_filled_slot_panics_naming_the_handler() {
    execute(RtsConfig::default(), 1, |loc| {
        let (token, _fut) = loc.make_reply_slot::<u8>();
        loc.reply(token, 1);
        loc.reply(token, 2);
    });
}

/// ... also once the first was taken and the slot has a new tenant: the
/// stale id's generation no longer matches.
#[test]
#[should_panic(expected = "second reply to future slot 0x0 (handler `<reply token>`)")]
fn a_second_reply_after_the_slot_was_reused_panics_too() {
    execute(RtsConfig::default(), 1, |loc| {
        let (token, fut) = loc.make_reply_slot::<u8>();
        loc.reply(token, 1);
        assert_eq!(fut.get(), 1);
        let (_next, tenant) = loc.make_reply_slot::<u8>();
        loc.reply(token, 2);
        drop(tenant);
    });
}
