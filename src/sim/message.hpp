// Message abstraction for the simulated message-passing network.
//
// Protocol messages are ordinary structs deriving from Message via the CRTP
// helper MessageBase, which supplies the static type tag.
// Receivers downcast with Message::as<T>() — an exact-type tag compare, not
// a dynamic_cast — and must treat every field as untrusted, since a
// Byzantine sender can put anything in them.
//
// Payload ownership: in-flight messages are immutable and shared through
// MessageHandle, an 8-byte intrusive handle whose reference count lives in
// the Message itself. A fanout or a network duplication fault shares one
// payload across every delivery instead of deep-copying per recipient.
// Anything that needs a mutated payload copy-constructs the concrete type,
// mutates the copy and shares it; the copy starts unshared, because
// copy-constructing a Message never copies its count. A receiver that wants
// to keep the payload it is handling (onMessage sees only a reference)
// takes a new handle to it with MessageHandle<const T>::share.
//
// Thread confinement (invariant): the count is a plain integer, not an
// atomic. A Simulator and every payload it carries belong to one thread for
// their whole lifetime — sweep workers each run their own simulators and
// never hand a payload to another thread. A handle must never cross
// threads; sharing one would race on the count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

namespace ooc {

class Message;
template <typename T>
class MessageHandle;

/// Shared immutable payload: how messages travel through the simulator.
/// Build one with makeMessage<T>(...).
using MessagePtr = MessageHandle<const Message>;

/// A message type's identity, assigned on first use (see tagOf).
using MessageTag = std::uint32_t;

namespace detail {
/// Hands out process-unique tags; thread-safe (the checker's sweep workers
/// run simulations concurrently). Assignment order depends on which type is
/// seen first and is never serialized or compared across runs, so it cannot
/// affect determinism.
MessageTag nextMessageTag() noexcept;
}  // namespace detail

/// The tag of concrete message type T (stable for the process lifetime).
template <typename T>
MessageTag tagOf() noexcept {
  static const MessageTag tag = detail::nextMessageTag();
  return tag;
}

class Message {
 public:
  /// A copy is a new, unshared payload: it takes the type tag, never the
  /// source's reference count.
  Message(const Message& other) noexcept : tag_(other.tag_) {}
  Message& operator=(const Message& other) noexcept {
    tag_ = other.tag_;
    return *this;
  }
  virtual ~Message() = default;

  /// Human-readable rendering for traces and logs. Built lazily: the
  /// simulator only calls this when a log sink or an observer opted in
  /// (ScheduleObserver::wantsMessageText).
  virtual std::string describe() const = 0;

  MessageTag tag() const noexcept { return tag_; }

  /// Checked downcast; returns nullptr when the payload is another type.
  /// Matches the exact concrete type only (every protocol message is a
  /// final class), via a tag compare instead of a dynamic_cast.
  template <typename T>
  const T* as() const noexcept {
    return tag_ == tagOf<T>() ? static_cast<const T*>(this) : nullptr;
  }

 protected:
  /// Concrete types get their tag through MessageBase.
  explicit Message(MessageTag tag) noexcept : tag_(tag) {}

 private:
  template <typename T>
  friend class MessageHandle;

  MessageTag tag_;
  /// Live handles to this payload; touched only by MessageHandle. Mutable
  /// because handles share a const payload. Non-atomic: see the thread
  /// confinement invariant at the top of this file.
  mutable std::uint32_t refs_ = 0;
};

/// CRTP base supplying the type tag for a concrete message
/// type. Every concrete message must derive from this (directly or via
/// `class M final : public MessageBase<M>`), so that as<M>() can resolve by
/// tag.
template <typename Derived>
class MessageBase : public Message {
 public:
  MessageBase() noexcept : Message(tagOf<Derived>()) {}
};

template <typename T, typename... Args>
MessageHandle<const T> makeMessage(Args&&... args);

/// Intrusive, thread-confined shared handle to an immutable payload.
/// Copying adds a reference, moving transfers it, and the last handle to
/// go deletes the payload (through Message's virtual destructor). A handle
/// to a derived message converts to a handle to any of its bases.
template <typename T>
class MessageHandle {
  static_assert(std::is_base_of_v<Message, std::remove_const_t<T>>,
                "MessageHandle holds Message types only");

 public:
  MessageHandle() noexcept = default;
  MessageHandle(std::nullptr_t) noexcept {}
  MessageHandle(const MessageHandle& other) noexcept : ptr_(other.ptr_) {
    retain();
  }
  MessageHandle(MessageHandle&& other) noexcept
      : ptr_(std::exchange(other.ptr_, nullptr)) {}
  template <typename U,
            typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  MessageHandle(const MessageHandle<U>& other) noexcept : ptr_(other.ptr_) {
    retain();
  }
  template <typename U,
            typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  MessageHandle(MessageHandle<U>&& other) noexcept
      : ptr_(std::exchange(other.ptr_, nullptr)) {}

  MessageHandle& operator=(MessageHandle other) noexcept {
    std::swap(ptr_, other.ptr_);
    return *this;
  }
  ~MessageHandle() { release(); }

  T* get() const noexcept { return ptr_; }
  T& operator*() const noexcept { return *ptr_; }
  T* operator->() const noexcept { return ptr_; }
  explicit operator bool() const noexcept { return ptr_ != nullptr; }

  /// Drops this handle's reference (deleting the payload if it was the
  /// last) and leaves the handle empty.
  void reset() noexcept {
    release();
    ptr_ = nullptr;
  }

  /// Handles sharing the payload (0 for an empty handle).
  std::uint32_t useCount() const noexcept { return ptr_ ? ptr_->refs_ : 0; }

  /// A new handle to a payload that handles already own — how a receiver
  /// retains the message it is handling. Throws std::logic_error for a
  /// payload no handle owns (one built on the stack, say): adopting it
  /// would delete memory the handle never allocated.
  static MessageHandle share(T& payload) {
    if (payload.refs_ == 0)
      throw std::logic_error("MessageHandle::share: payload is not "
                             "handle-owned (build it with makeMessage)");
    MessageHandle handle;
    handle.ptr_ = &payload;
    handle.retain();
    return handle;
  }

 private:
  template <typename U>
  friend class MessageHandle;
  template <typename U, typename... Args>
  friend MessageHandle<const U> makeMessage(Args&&... args);

  /// Adopts a freshly allocated, unshared payload.
  explicit MessageHandle(T* fresh) noexcept : ptr_(fresh) { ptr_->refs_ = 1; }

  void retain() const noexcept {
    if (ptr_) ++ptr_->refs_;
  }
  void release() noexcept {
    if (ptr_ && --ptr_->refs_ == 0) delete ptr_;
  }

  T* ptr_ = nullptr;
};

/// Builds a shared, immutable payload in place — the only way to create
/// one:
///   ctx.fanout(makeMessage<ProposalMessage>(round, value));
///   ctx.post(to, makeMessage<Nack>(ballot, promised));
template <typename T, typename... Args>
MessageHandle<const T> makeMessage(Args&&... args) {
  return MessageHandle<const T>(new T(std::forward<Args>(args)...));
}

}  // namespace ooc
