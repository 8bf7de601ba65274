//! An integration test: it calls `fill` and names `Stack::top`.

#[test]
fn fills() {
    let mut stack = alpha::Stack::default();
    let top = alpha::Stack::top;
    assert_eq!(alpha::fill(&mut stack), 3);
    assert_eq!(top(&stack), Some(2));
}
