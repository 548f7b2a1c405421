/**
 * @file
 * Work-stealing thread pool powering Betty's parallel batch
 * preparation (REG construction, neighbor sampling, transfer-compute
 * pipelining).
 *
 * Determinism contract (docs/PARALLELISM.md): the pool only ever
 * executes *independent* work items — parallelFor() chunks a range
 * into fixed-size blocks whose boundaries depend on the range and the
 * grain, never on the thread count, and every caller writes results
 * into per-chunk (or per-index) slots. Scheduling order is therefore
 * free to vary while outputs stay bit-identical for any `--threads`
 * value, including 1.
 *
 * Threading model: a pool of size N runs N-1 worker threads and
 * conscripts the calling thread as the N-th lane. Each worker owns a
 * deque; submissions are distributed round-robin, workers pop from
 * their own front and steal from other backs when idle. parallelFor
 * is cooperative: the caller claims chunks alongside the workers, so
 * nested parallelFor calls from inside a worker cannot deadlock —
 * the inner caller simply processes its own chunks.
 *
 * Exceptions thrown by a parallelFor body are captured (first one
 * wins, remaining chunks are skipped) and rethrown on the calling
 * thread; submit() propagates exceptions through its std::future.
 *
 * Observability: pool.tasks / pool.parallel_fors / pool.chunks /
 * pool.steals metrics, plus a per-chunk "pool/chunk" trace span so
 * worker lanes show up as parallel tracks in the Chrome trace.
 */
#ifndef BETTY_UTIL_THREAD_POOL_H
#define BETTY_UTIL_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace betty {

/** Work-stealing pool; see the file comment for the contract. */
class ThreadPool
{
  public:
    /**
     * @param num_threads Total parallel lanes including the caller:
     * N spawns N-1 workers. Values < 1 are clamped to 1 (no workers;
     * submit() and parallelFor() run inline on the caller).
     */
    explicit ThreadPool(int32_t num_threads);

    /** Joins all workers; pending tasks are drained first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Configured lane count (workers + the calling thread). */
    int32_t numThreads() const { return num_threads_; }

    /**
     * Run @p fn asynchronously; the returned future delivers the
     * result or rethrows what @p fn threw. With no workers the task
     * runs inline before submit() returns (still through the future,
     * so threads=1 keeps identical semantics and ordering).
     */
    template <typename F>
    auto
    submit(F&& fn) -> std::future<std::invoke_result_t<F>>
    {
        using Result = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<Result()>>(
            std::forward<F>(fn));
        auto future = task->get_future();
        enqueue([task]() { (*task)(); });
        return future;
    }

    /**
     * Apply @p body to [begin, end) in chunks of at most @p grain
     * indices: body(lo, hi) covers [lo, hi). Chunk boundaries depend
     * only on (begin, end, grain) — NOT on the thread count — so a
     * body writing to per-index slots yields identical output for any
     * pool size. Blocks until every chunk ran; rethrows the first
     * exception a chunk raised (remaining chunks are skipped).
     */
    void parallelFor(int64_t begin, int64_t end, int64_t grain,
                     const std::function<void(int64_t, int64_t)>& body);

    /**
     * The process-wide pool used by the parallel batch-preparation
     * paths. Sized by the last setGlobalThreads() call, else the
     * BETTY_THREADS environment variable, else 1 (serial).
     */
    static ThreadPool& global();

    /**
     * Resize the global pool (drains and joins the previous one).
     * Call only from configuration points (CLI startup, test
     * setup/teardown) with no pool work in flight: threads still
     * blocked inside the old pool's parallelFor/submit would be
     * waiting on state the swap destroys.
     */
    static void setGlobalThreads(int32_t num_threads);

    /** Lane count of the global pool without forcing its creation. */
    static int32_t globalThreads();

  private:
    struct WorkerQueue
    {
        std::mutex mutex;
        std::deque<std::function<void()>> tasks;
    };

    /** Shared state of one parallelFor region. */
    struct ForState
    {
        int64_t begin = 0;
        int64_t grain = 1;
        int64_t end = 0;
        int64_t numChunks = 0;
        const std::function<void(int64_t, int64_t)>* body = nullptr;
        std::atomic<int64_t> nextChunk{0};
        std::atomic<int64_t> doneChunks{0};
        std::atomic<bool> cancelled{false};
        std::mutex mutex;
        std::condition_variable done;
        std::exception_ptr exception;

        /** Span enclosing the parallelFor call (0 = none/disabled);
         * source of the spawn flow edges into each chunk span. */
        uint64_t callerSpan = 0;
        /** When the region was entered (spawn-edge timestamp). */
        int64_t spawnTsUs = 0;
        /** Attribution category inherited from the caller's span
         * (literal or nullptr) — a chunk of sampling is sampling. */
        const char* traceCategory = nullptr;
        /** Chunk span ids, collected under mutex for the join edges
         * the caller records after the wait. */
        std::vector<uint64_t> chunkSpans;
    };

    /** Queue @p task, wrapped in a "pool/task" span and its spawn
     * flow while tracing. */
    void enqueue(std::function<void()> task);
    /** Queue @p task as is (runs inline when there are no workers). */
    void push(std::function<void()> task);
    void workerLoop(size_t index);
    bool tryPop(size_t index, std::function<void()>& task);

    /** Claim and run chunks of @p state until none remain. A
     * @p helper (a queued task, not the caller) opens its own
     * "pool/task" span once it has claimed a chunk. */
    static void runChunks(const std::shared_ptr<ForState>& state,
                          bool helper);

    int32_t num_threads_;
    std::vector<std::unique_ptr<WorkerQueue>> queues_;
    std::vector<std::thread> workers_;
    std::mutex wake_mutex_;
    std::condition_variable wake_;
    std::atomic<int64_t> next_queue_{0};
    std::atomic<int64_t> pending_{0};
    std::atomic<bool> shutdown_{false};
};

} // namespace betty

#endif // BETTY_UTIL_THREAD_POOL_H
