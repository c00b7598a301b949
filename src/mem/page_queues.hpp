/**
 * @file
 * Intrusive list and the per-GPU physical page queue set.
 *
 * The paper (Section 5.5) describes four per-GPU queues of 2 MB
 * physical pages:
 *
 *   - free:      chunks immediately available for allocation;
 *   - unused:    FIFO of leftover chunks that hold no live data and
 *                can be reclaimed without a transfer;
 *   - used:      pseudo-LRU of chunks actively backing va_blocks
 *                (touched to MRU on fault/prefetch; a run of blocks
 *                already adjacent in touch order moves as one
 *                spliceToBack);
 *   - discarded: FIFO added by this work; chunks whose contents were
 *                discarded.  Kept in FIFO order to maximize the chance
 *                a re-access recovers the chunk before reclamation.
 *
 * Eviction order: unused -> discarded -> used-LRU (only the last one
 * costs a device-to-host transfer).
 *
 * The queues are intrusive so membership changes are O(1) and a chunk
 * can be unlinked from whatever queue holds it without a search.  The
 * element type is a template parameter because the queue element (the
 * driver's va_block) lives in a higher layer.
 */

#ifndef UVMD_MEM_PAGE_QUEUES_HPP
#define UVMD_MEM_PAGE_QUEUES_HPP

#include <cstddef>
#include <cstdint>

#include "sim/logging.hpp"

namespace uvmd::mem {

/** Which queue a chunk currently belongs to. */
enum class QueueKind : std::uint8_t {
    kNone,       ///< not on any queue (e.g. no GPU chunk at all)
    kUnused,     ///< leftover, reclaimable without transfer
    kUsed,       ///< live data, pseudo-LRU
    kDiscarded,  ///< discarded data, FIFO (this paper's addition)
};

const char *toString(QueueKind kind);

/** Embed one of these in the element type for each list membership. */
template <typename T>
struct QueueLink {
    T *prev = nullptr;
    T *next = nullptr;
    QueueKind on = QueueKind::kNone;
};

/**
 * Doubly-linked intrusive list over elements carrying a QueueLink,
 * located via the member pointer @p LinkMember.
 */
template <typename T, QueueLink<T> T::*LinkMember>
class IntrusiveList
{
  public:
    explicit IntrusiveList(QueueKind kind) : kind_(kind) {}

    bool empty() const { return head_ == nullptr; }
    std::size_t size() const { return size_; }
    T *front() const { return head_; }
    T *back() const { return tail_; }
    QueueKind kind() const { return kind_; }

    /** Successor of @p elem on this list (nullptr at the tail). */
    T *next(T *elem) const { return (elem->*LinkMember).next; }

    /** Append to the tail (FIFO enqueue / LRU's MRU side). */
    void
    pushBack(T *elem)
    {
        auto &link = elem->*LinkMember;
        if (link.on != QueueKind::kNone)
            sim::panic("IntrusiveList: element already on a queue");
        link.prev = tail_;
        link.next = nullptr;
        link.on = kind_;
        if (tail_)
            (tail_->*LinkMember).next = elem;
        else
            head_ = elem;
        tail_ = elem;
        ++size_;
    }

    /** Remove an arbitrary element. @pre elem is on this list. */
    void
    remove(T *elem)
    {
        auto &link = elem->*LinkMember;
        if (link.on != kind_)
            sim::panic("IntrusiveList: element not on this queue");
        if (link.prev)
            (link.prev->*LinkMember).next = link.next;
        else
            head_ = link.next;
        if (link.next)
            (link.next->*LinkMember).prev = link.prev;
        else
            tail_ = link.prev;
        link.prev = link.next = nullptr;
        link.on = QueueKind::kNone;
        --size_;
    }

    /** Dequeue from the head (FIFO dequeue / LRU side). */
    T *
    popFront()
    {
        T *elem = head_;
        if (elem)
            remove(elem);
        return elem;
    }

    /** Move an element already on this list to the tail (MRU touch). */
    void
    moveToBack(T *elem)
    {
        remove(elem);
        pushBack(elem);
    }

    /**
     * Move the segment [first, last] to the tail in O(1), keeping its
     * internal order: the same list as moveToBack on each element of
     * the segment from first to last.
     * @pre first..last is a contiguous run on this list, first not
     *      after last.
     */
    void
    spliceToBack(T *first, T *last)
    {
        auto &fl = first->*LinkMember;
        auto &ll = last->*LinkMember;
        if (fl.on != kind_ || ll.on != kind_)
            sim::panic("IntrusiveList: segment not on this queue");
        if (last == tail_)
            return;
        if (fl.prev)
            (fl.prev->*LinkMember).next = ll.next;
        else
            head_ = ll.next;
        (ll.next->*LinkMember).prev = fl.prev;
        (tail_->*LinkMember).next = first;
        fl.prev = tail_;
        ll.next = nullptr;
        tail_ = last;
    }

  private:
    QueueKind kind_;
    T *head_ = nullptr;
    T *tail_ = nullptr;
    std::size_t size_ = 0;
};

/**
 * The used/unused/discarded queue triple for one GPU.  (The free queue
 * is a plain counter inside ChunkAllocator since free chunks carry no
 * identity in this model.)
 */
template <typename T, QueueLink<T> T::*LinkMember>
class GpuPageQueues
{
  public:
    using List = IntrusiveList<T, LinkMember>;

    GpuPageQueues()
        : unused_(QueueKind::kUnused),
          used_(QueueKind::kUsed),
          discarded_(QueueKind::kDiscarded)
    {}

    List &unusedQueue() { return unused_; }
    List &usedQueue() { return used_; }
    List &discardedQueue() { return discarded_; }
    const List &unusedQueue() const { return unused_; }
    const List &usedQueue() const { return used_; }
    const List &discardedQueue() const { return discarded_; }

    /** Which queue (if any) currently holds @p elem. */
    QueueKind
    membership(const T *elem) const
    {
        return (elem->*LinkMember).on;
    }

    /** Remove @p elem from whichever queue holds it, if any. */
    void
    unlink(T *elem)
    {
        switch ((elem->*LinkMember).on) {
          case QueueKind::kNone:
            break;
          case QueueKind::kUnused:
            unused_.remove(elem);
            break;
          case QueueKind::kUsed:
            used_.remove(elem);
            break;
          case QueueKind::kDiscarded:
            discarded_.remove(elem);
            break;
        }
    }

    /** Move @p elem to the requested queue's tail. */
    void
    placeOn(T *elem, QueueKind kind)
    {
        unlink(elem);
        switch (kind) {
          case QueueKind::kNone:
            break;
          case QueueKind::kUnused:
            unused_.pushBack(elem);
            break;
          case QueueKind::kUsed:
            used_.pushBack(elem);
            break;
          case QueueKind::kDiscarded:
            discarded_.pushBack(elem);
            break;
        }
    }

    /** Touch an element on the used queue to the MRU side. */
    void
    touchUsed(T *elem)
    {
        if ((elem->*LinkMember).on != QueueKind::kUsed)
            sim::panic("GpuPageQueues::touchUsed: not on used queue");
        used_.moveToBack(elem);
    }

  private:
    List unused_;
    List used_;
    List discarded_;
};

}  // namespace uvmd::mem

#endif  // UVMD_MEM_PAGE_QUEUES_HPP
